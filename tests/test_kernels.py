"""Tests for the kernel zoo, Gram builders, and block identities."""

import numpy as np
import pytest

from wrkhs import kernels
from wrkhs import (
    ComplexGaussian,
    IndependentGaussian,
    KernelOverflowWarning,
    RealGaussian,
    RealImagBlocks,
    SeparateRealImag,
    SumOfSeparable,
    augmented_gram,
    composite_blocks,
    composite_gram,
    kernel_from_config,
    min_composite_eigenvalue,
    transform_matrix,
    validate_psd,
)
from conftest import mixed_gamma_blocks, random_inputs, zoo_specs


class TestEval:
    def test_real_gaussian_zero_distance(self):
        spec = RealGaussian(gamma=0.8)
        assert spec.eval(np.zeros(1), np.zeros(1)) == 1.0

    def test_complex_gaussian_diagonal_grows(self):
        # x = x' = jb: value exp(4 b^2 / gamma), real and unbounded in b
        spec = ComplexGaussian(gamma=80.0)
        for b in (0.5, 2.0, 10.0):
            v = spec.eval(np.array([1j * b]), np.array([1j * b]))
            assert v.imag == pytest.approx(0.0, abs=1e-12)
            assert v.real == pytest.approx(np.exp(4 * b * b / 80.0), rel=1e-12)
        small = spec.eval(np.array([0.5j]), np.array([0.5j])).real
        big = spec.eval(np.array([10j]), np.array([10j])).real
        assert big > small > 1.0

    def test_separate_parts_diagonal(self):
        spec = SeparateRealImag(rr=RealGaussian(1.0), jj=RealGaussian(4.0))
        x = np.array([0.3 + 0.7j])
        assert spec.eval(x, x) == pytest.approx(2.0)

    def test_independent_diagonal(self):
        spec = IndependentGaussian(gamma=0.8)
        x = np.array([0.3 + 0.7j])
        assert spec.eval(x, x) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        spec = RealGaussian(gamma=1.0)
        with pytest.raises(ValueError, match="dimension"):
            spec.gram(np.ones((2, 2), dtype=complex), np.ones((2, 3), dtype=complex))


class TestPseudoEval:
    def test_null_families(self):
        x = np.array([0.4 - 0.2j])
        z = np.array([-1.0 + 0.9j])
        for spec in (RealGaussian(0.8), ComplexGaussian(80.0), IndependentGaussian(0.8)):
            assert spec.pseudo(x, z) == 0.0
            assert spec.has_null_pseudo

    def test_properness_condition_cancels_pseudo(self):
        # rr == jj and rj == -jr (both zero) make the pseudo-kernel vanish
        g = RealGaussian(gamma=1.1)
        zero = RealGaussian(gamma=1.1, scale=0.0)
        spec = RealImagBlocks(rr=g, jj=g, rj=zero, jr=zero)
        x = np.array([0.4 - 0.2j])
        z = np.array([-1.0 + 0.9j])
        assert spec.pseudo(x, z) == 0.0
        assert spec.has_null_pseudo

    def test_mer_single_term(self):
        # one term, w = 0.3, k(x, x) = 1 -> pseudo-kernel 0.6j
        spec = SumOfSeparable(terms=((RealGaussian(gamma=2.0), 0.3),))
        x = np.array([0.2 + 0.1j])
        assert spec.pseudo(x, x) == pytest.approx(0.6j)
        assert spec.eval(x, x) == pytest.approx(2.0)

    def test_weight_range_enforced(self):
        with pytest.raises(ValueError, match="weights"):
            SumOfSeparable(terms=((RealGaussian(1.0), 1.0),))
        with pytest.raises(ValueError, match="weights"):
            SumOfSeparable(terms=((RealGaussian(1.0), -0.1),))

    def test_cross_kernels_accepted_exactly_when_equal(self):
        # rj(x, x') == jr(x', x) holds for symmetric Gaussians iff rj == jr
        g = RealGaussian(1.0)
        cross = RealGaussian(0.7, scale=0.3)
        assert RealImagBlocks(rr=g, jj=g, rj=cross, jr=cross).is_real_valued
        # two zero-scale cross kernels are both the zero function
        spec = RealImagBlocks(
            rr=g, jj=g, rj=RealGaussian(0.5, scale=0.0), jr=RealGaussian(2.0, scale=0.0)
        )
        assert spec.has_null_pseudo
        with pytest.raises(ValueError, match="cross kernels"):
            RealImagBlocks(rr=g, jj=g, rj=cross, jr=RealGaussian(0.7, scale=0.0))

    def test_cross_kernel_consistency_rejected(self):
        with pytest.raises(ValueError, match="cross kernels"):
            RealImagBlocks(
                rr=RealGaussian(1.0),
                jj=RealGaussian(1.0),
                rj=RealGaussian(1.0, scale=0.5),
                jr=RealGaussian(2.0, scale=0.5),
            )


class TestGram:
    def test_single_point(self):
        spec = RealGaussian(gamma=0.8)
        x = np.array([[0.3 + 1j]])
        np.testing.assert_allclose(spec.gram(x, x), [[1.0]])

    def test_hermitian_all_families(self, specs):
        rng = np.random.default_rng(11)
        x = random_inputs(rng, 6, 2)
        for name, spec in specs.items():
            k = np.asarray(spec.gram(x), dtype=complex)
            np.testing.assert_allclose(
                k, k.conj().T, atol=1e-12, err_msg=f"family {name}"
            )

    def test_pseudo_symmetric_not_hermitian(self, specs):
        rng = np.random.default_rng(12)
        x = random_inputs(rng, 6, 2)
        for name in ("real_imag_blocks", "separate_real_imag", "sum_of_separable"):
            kt = np.asarray(specs[name].pseudo_gram(x), dtype=complex)
            np.testing.assert_allclose(kt, kt.T, atol=1e-12, err_msg=f"family {name}")

    def test_cross_gram_shapes(self, specs):
        rng = np.random.default_rng(13)
        x = random_inputs(rng, 5, 2)
        z = random_inputs(rng, 3, 2)
        for spec in specs.values():
            assert spec.gram(x, z).shape == (5, 3)
            assert spec.pseudo_gram(x, z).shape == (5, 3)


class TestPair:
    def test_matches_separate_evaluations(self, specs):
        rng = np.random.default_rng(25)
        x = random_inputs(rng, 6, 2)
        z = random_inputs(rng, 4, 2)
        for name, spec in specs.items():
            k, kt = spec.pair(x, z)
            np.testing.assert_allclose(k, spec.gram(x, z), atol=1e-13, err_msg=name)
            np.testing.assert_allclose(kt, spec.pseudo_gram(x, z), atol=1e-13, err_msg=name)

    def test_one_distance_matrix_per_call(self, specs, monkeypatch):
        calls = []
        sqdist = kernels._sqdist
        monkeypatch.setattr(kernels, "_sqdist", lambda a, b: calls.append(1) or sqdist(a, b))
        x = random_inputs(np.random.default_rng(26), 5, 2)
        for name in ("real_imag_blocks", "separate_real_imag", "sum_of_separable"):
            calls.clear()
            specs[name].pair(x)
            assert len(calls) == 1, name

    def test_real_valued_from_coefficients(self, specs):
        # (rr + jj) + j(jr - rj) with rj == jr, and 2 sum_q k_q, are real
        assert specs["real_imag_blocks"].is_real_valued
        assert specs["sum_of_separable"].is_real_valued
        assert not specs["sum_of_separable"].has_null_pseudo
        x = random_inputs(np.random.default_rng(27), 4, 2)
        for name, spec in specs.items():
            assert spec.is_real_valued == (not np.iscomplexobj(spec.gram(x))), name

    def test_phase_alignment_rule(self, specs):
        # exact, from the coefficients alone
        assert specs["separate_real_imag"].phase == 1
        # rr - jj < 0 is turned to p = 1
        turned = SeparateRealImag(rr=RealGaussian(1.0, scale=0.3), jj=RealGaussian(1.0))
        assert turned.phase == 1
        mer = SumOfSeparable(
            terms=(
                (RealGaussian(gamma=2.0), 0.3),
                (RealGaussian(gamma=0.7), 0.0),
                (RealGaussian(gamma=1.1, scale=0.5), 0.6),
            )
        )
        assert mer.phase == 1j
        # one gamma: b = (rr - jj) + j(jr + rj), neither real nor imaginary
        blocks = specs["real_imag_blocks"]
        zero = np.zeros((1, 1))
        b = complex(blocks.pseudo_gram(zero, zero)[0, 0])
        assert blocks.phase == b / abs(b)
        assert blocks.phase.real > 0 and blocks.phase.imag > 0
        assert mixed_gamma_blocks().phase is None
        for name in ("real_gaussian", "complex_gaussian", "independent"):
            assert specs[name].phase is None, name

    def test_split_grams_rotate_the_pair(self, specs):
        # (K + S, K - S) with Kt = p S, both real
        x = random_inputs(np.random.default_rng(29), 6, 2)
        for name in ("real_imag_blocks", "separate_real_imag", "sum_of_separable"):
            spec = specs[name]
            k, kt = spec.pair(x)
            plus, minus = spec.split_grams(x)
            assert plus.dtype == minus.dtype == np.float64, name
            np.testing.assert_allclose((plus + minus) / 2, k, atol=1e-14, err_msg=name)
            np.testing.assert_allclose(
                spec.phase * (plus - minus) / 2, kt, atol=1e-14, err_msg=name
            )
        with pytest.raises(ValueError, match="not phase-aligned"):
            mixed_gamma_blocks().split_grams(x)

    def test_diag_matches_gram_diagonal(self, specs):
        x = random_inputs(np.random.default_rng(28), 7, 2)
        for name, spec in specs.items():
            k, kt = spec.pair(x)
            dk, dkt = spec.diag(x)
            np.testing.assert_allclose(dk, np.diagonal(k), rtol=1e-13, err_msg=name)
            np.testing.assert_allclose(dkt, np.diagonal(kt), atol=1e-13, err_msg=name)


class TestAugmentedGram:
    def test_block_diagonal_for_null_pseudo(self):
        rng = np.random.default_rng(14)
        x = random_inputs(rng, 4, 1)
        spec = IndependentGaussian(gamma=0.9)
        kbar = augmented_gram(spec, x)
        k = spec.gram(x)
        np.testing.assert_allclose(kbar[:4, :4], k)
        np.testing.assert_allclose(kbar[4:, 4:], np.conj(k))
        np.testing.assert_allclose(kbar[:4, 4:], 0.0, atol=0)
        np.testing.assert_allclose(kbar[4:, :4], 0.0, atol=0)

    def test_hermitian(self, specs):
        rng = np.random.default_rng(15)
        x = random_inputs(rng, 5, 2)
        for name, spec in specs.items():
            kbar = augmented_gram(spec, x)
            np.testing.assert_allclose(
                kbar, kbar.conj().T, atol=1e-12, err_msg=f"family {name}"
            )

    def test_equals_half_t_kcom_th(self, specs):
        # relation between the augmented and composite Gram matrices
        rng = np.random.default_rng(16)
        x = random_inputs(rng, 5, 2)
        t = transform_matrix(5)
        for name, spec in specs.items():
            kbar = augmented_gram(spec, x)
            kcom = composite_gram(spec, x, x)
            np.testing.assert_allclose(
                kbar,
                0.5 * t @ kcom @ t.conj().T,
                atol=1e-12,
                err_msg=f"family {name}",
            )


class TestCompositeBlocks:
    def test_real_kernel_null_pseudo(self):
        rng = np.random.default_rng(17)
        x = random_inputs(rng, 4, 2)
        spec = RealGaussian(gamma=1.1)
        rr, rj, jr, jj = composite_blocks(spec, x, x)
        k = spec.gram(x)
        np.testing.assert_allclose(rr, k / 2.0)
        np.testing.assert_allclose(jj, k / 2.0)
        np.testing.assert_allclose(rj, 0.0, atol=0)
        np.testing.assert_allclose(jr, 0.0, atol=0)

    def test_identification_roundtrip(self, specs):
        # composing blocks back through the identification equations
        rng = np.random.default_rng(18)
        x = random_inputs(rng, 5, 2)
        z = random_inputs(rng, 4, 2)
        for name, spec in specs.items():
            rr, rj, jr, jj = composite_blocks(spec, x, z)
            k = (rr + jj) + 1j * (jr - rj)
            kt = (rr - jj) + 1j * (jr + rj)
            np.testing.assert_allclose(k, spec.gram(x, z), atol=1e-13, err_msg=name)
            np.testing.assert_allclose(
                kt, spec.pseudo_gram(x, z), atol=1e-13, err_msg=name
            )

    def test_separate_parts_blocks(self):
        rng = np.random.default_rng(19)
        x = random_inputs(rng, 4, 1)
        k1, k2 = RealGaussian(0.9), RealGaussian(3.1)
        spec = SeparateRealImag(rr=k1, jj=k2)
        rr, rj, jr, jj = composite_blocks(spec, x, x)
        np.testing.assert_allclose(rr, k1.gram(x))
        np.testing.assert_allclose(jj, k2.gram(x))
        np.testing.assert_allclose(rj, 0.0, atol=1e-15)
        np.testing.assert_allclose(jr, 0.0, atol=1e-15)


class TestStructuralProperties:
    def test_srkhs_kernel_structure(self):
        # complex-valued null-pseudo kernels: Re symmetric, Im skew-symmetric
        rng = np.random.default_rng(20)
        for spec in (ComplexGaussian(gamma=60.0), IndependentGaussian(gamma=0.8)):
            for _ in range(50):
                x = random_inputs(rng, 1, 2)[0]
                z = random_inputs(rng, 1, 2)[0]
                a = spec.eval(x, z)
                b = spec.eval(z, x)
                assert a.real == pytest.approx(b.real, abs=1e-13)
                assert a.imag == pytest.approx(-b.imag, abs=1e-13)

    def test_real_gaussian_stationary(self):
        rng = np.random.default_rng(21)
        spec = RealGaussian(gamma=0.8)
        for _ in range(25):
            x = random_inputs(rng, 1, 2)[0]
            z = random_inputs(rng, 1, 2)[0]
            c = random_inputs(rng, 1, 2)[0]
            assert spec.eval(x, z) == pytest.approx(spec.eval(x + c, z + c), abs=1e-14)

    def test_complex_gaussian_not_stationary(self):
        spec = ComplexGaussian(gamma=60.0)
        x = np.array([0.5 + 0.5j])
        z = np.array([-0.3 + 0.1j])
        shift = np.array([2.0j])
        assert spec.eval(x, z) != pytest.approx(spec.eval(x + shift, z + shift))

    def test_psd_families(self):
        rng = np.random.default_rng(22)
        psd_specs = [
            zoo_specs()["real_gaussian"],
            zoo_specs()["separate_real_imag"],
            zoo_specs()["sum_of_separable"],
        ]
        for spec in psd_specs:
            for n in (5, 18, 30):
                x = random_inputs(rng, n, 2)
                assert min_composite_eigenvalue(spec, x) >= -1e-10

    def test_validate_psd_raises_on_invalid_pair(self):
        # rr/jj blocks with an overweight cross term are not a valid pair
        bad = RealImagBlocks(
            rr=RealGaussian(gamma=1.0, scale=0.2),
            jj=RealGaussian(gamma=1.0, scale=0.2),
            rj=RealGaussian(gamma=1.0, scale=1.0),
            jr=RealGaussian(gamma=1.0, scale=1.0),
        )
        rng = np.random.default_rng(23)
        x = random_inputs(rng, 10, 1)
        with pytest.raises(ValueError, match="positive semidefinite"):
            validate_psd(bad, x)

    def test_overflow_guard(self):
        spec = ComplexGaussian(gamma=80.0)
        x = np.array([[130.0j]])
        with pytest.warns(KernelOverflowWarning):
            k = spec.gram(x, x)
        assert np.isfinite(k).all()
        assert k[0, 0].real == pytest.approx(np.exp(700.0))


class TestConfigRoundtrip:
    def test_all_families(self, specs):
        rng = np.random.default_rng(24)
        x = random_inputs(rng, 4, 2)
        z = random_inputs(rng, 3, 2)
        for name, spec in specs.items():
            clone = kernel_from_config(spec.to_config())
            assert clone == spec, name
            np.testing.assert_array_equal(clone.gram(x, z), spec.gram(x, z))
            np.testing.assert_array_equal(
                clone.pseudo_gram(x, z), spec.pseudo_gram(x, z)
            )

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown kernel family"):
            kernel_from_config({"family": "nope", "params": {}})

    def test_gamma_validation(self):
        with pytest.raises(ValueError, match="gamma"):
            RealGaussian(gamma=0.0)
        with pytest.raises(ValueError, match="gamma"):
            ComplexGaussian(gamma=-1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "cls,field",
        [
            (RealGaussian, "gamma"),
            (RealGaussian, "scale"),
            (ComplexGaussian, "gamma"),
            (IndependentGaussian, "gamma"),
        ],
    )
    def test_nonfinite_params_rejected(self, cls, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            cls(**{"gamma": 1.0, field: value})
