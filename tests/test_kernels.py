"""Tests for the kernel zoo, Gram builders, and block identities."""

import json
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from wrkhs import kernels
from wrkhs import (
    ComplexDataset,
    ComplexGaussian,
    IndependentGaussian,
    KernelOverflowWarning,
    RealGaussian,
    RealImagBlocks,
    SeparateRealImag,
    SumOfSeparable,
    fit_srkhs,
    kernel_from_config,
)
from wrkhs.core import as_samples, unpacked
from conftest import (
    augmented_gram,
    composite_matrix,
    kernel_value,
    min_composite_eigenvalue,
    mixed_gamma_blocks,
    pseudo_value,
    random_inputs,
    ridge_systems,
    transform_matrix,
    zoo_specs,
)


def composite_blocks(spec, x, z):
    """The four real part-kernel blocks (rr, rj, jr, jj): the composite
    matrix is twice them."""
    kc = composite_matrix(*spec.pair(x, z)) / 2
    m, n = kc.shape[0] // 2, kc.shape[1] // 2
    return kc[:m, :n], kc[:m, n:], kc[m:, :n], kc[m:, n:]


class TestEval:
    def test_real_gaussian_zero_distance(self):
        spec = RealGaussian(gamma=0.8)
        assert kernel_value(spec, np.zeros(1), np.zeros(1)) == 1.0

    def test_complex_gaussian_diagonal_grows(self):
        # x = x' = jb: value exp(4 b^2 / gamma), real and unbounded in b
        spec = ComplexGaussian(gamma=80.0)
        for b in (0.5, 2.0, 10.0):
            v = kernel_value(spec, np.array([1j * b]), np.array([1j * b]))
            assert v.imag == pytest.approx(0.0, abs=1e-12)
            assert v.real == pytest.approx(np.exp(4 * b * b / 80.0), rel=1e-12)
        small = kernel_value(spec, np.array([0.5j]), np.array([0.5j])).real
        big = kernel_value(spec, np.array([10j]), np.array([10j])).real
        assert big > small > 1.0

    def test_separate_parts_diagonal(self):
        spec = SeparateRealImag(rr=RealGaussian(1.0), jj=RealGaussian(4.0))
        x = np.array([0.3 + 0.7j])
        assert kernel_value(spec, x, x) == pytest.approx(2.0)

    def test_independent_diagonal(self):
        spec = IndependentGaussian(gamma=0.8)
        x = np.array([0.3 + 0.7j])
        assert kernel_value(spec, x, x) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        spec = RealGaussian(gamma=1.0)
        with pytest.raises(ValueError, match="dimension"):
            spec.gram(np.ones((2, 2), dtype=complex), np.ones((2, 3), dtype=complex))


class TestPseudoEval:
    def test_null_families(self):
        x = np.array([0.4 - 0.2j])
        z = np.array([-1.0 + 0.9j])
        for spec in (RealGaussian(0.8), ComplexGaussian(80.0), IndependentGaussian(0.8)):
            assert pseudo_value(spec, x, z) == 0.0
            assert spec.has_null_pseudo

    def test_properness_condition_cancels_pseudo(self):
        # rr == jj and rj == -jr (both zero) make the pseudo-kernel vanish
        g = RealGaussian(gamma=1.1)
        zero = RealGaussian(gamma=1.1, scale=0.0)
        spec = RealImagBlocks(rr=g, jj=g, rj=zero, jr=zero)
        x = np.array([0.4 - 0.2j])
        z = np.array([-1.0 + 0.9j])
        assert pseudo_value(spec, x, z) == 0.0
        assert spec.has_null_pseudo

    def test_mer_single_term(self):
        # one term, w = 0.3, k(x, x) = 1 -> pseudo-kernel 0.6j
        spec = SumOfSeparable(terms=((RealGaussian(gamma=2.0), 0.3),))
        x = np.array([0.2 + 0.1j])
        assert pseudo_value(spec, x, x) == pytest.approx(0.6j)
        assert kernel_value(spec, x, x) == pytest.approx(2.0)

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

    def test_triangle_matches_the_cross_evaluation(self):
        # x' = x builds the lower triangle and mirrors it; a copy of x takes the cross path
        x = random_inputs(np.random.default_rng(14), 300, 2)
        for name, spec in {**zoo_specs(), "mixed_gamma_blocks": mixed_gamma_blocks()}.items():
            for tri, cross in zip(spec.pair(x), spec.pair(x, x.copy())):
                np.testing.assert_allclose(tri, cross, rtol=0, atol=1e-13, err_msg=name)

    @pytest.mark.parametrize("kind", ["float", "list", "one_dimensional"])
    def test_the_same_input_twice_is_the_triangle(self, kind):
        # "x' = x" is decided from the arguments, before they are converted
        x = random_inputs(np.random.default_rng(15), 9, 2)
        x = {"float": x.real, "list": x.real.tolist(), "one_dimensional": x[:, 0]}[kind]
        for name, spec in {**zoo_specs(), "mixed_gamma_blocks": mixed_gamma_blocks()}.items():
            assert np.array_equal(spec.gram(x, x), spec.gram(x)), name
            for twice, once in zip(spec.pair(x, x), spec.pair(x)):
                assert np.array_equal(twice, once), name

    def test_cross_gram_shapes(self, specs):
        rng = np.random.default_rng(13)
        x = random_inputs(rng, 5, 2)
        z = random_inputs(rng, 3, 2)
        for spec in specs.values():
            assert spec.gram(x, z).shape == (5, 3)
            assert spec.pseudo_gram(x, z).shape == (5, 3)


class TestExactHermitian:
    """A Gram (``x' = x``) is exactly Hermitian where the kernels build it, so
    the ridge shift only adds to the diagonal. 257 and 600 rows cross the
    256-row blocks of the distance epilogue."""

    @pytest.mark.parametrize("d", [1, 5, 9])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 257, 600])
    def test_every_gram_is_exactly_hermitian(self, n, d):
        x = random_inputs(np.random.default_rng(100 * n + d), n, d)
        for name, spec in {**zoo_specs(), "mixed_gamma_blocks": mixed_gamma_blocks()}.items():
            k, kt = spec.pair(x)
            assert np.array_equal(k, k.conj().T), name
            assert np.array_equal(kt, kt.T), name
            kc = composite_matrix(k, kt)
            assert np.array_equal(kc, kc.T), name
            if not spec.has_null_pseudo:
                for m in ridge_systems(spec, x)[1]:
                    assert np.array_equal(m, m.T), name

    @pytest.mark.parametrize("d", [1, 5, 9])
    def test_independent_gram_of_far_samples_is_exactly_diagonal(self, d):
        # samples far apart, each with close real and imaginary parts: the Gram is
        # diagonal, kappa(xr_i, xj_i) - kappa(xj_i, xr_i) its imaginary part, exactly 0
        spec = IndependentGaussian(gamma=0.8)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = 40.0 * np.arange(9)[:, None] * (1 + 1j) + random_inputs(rng, 9, d)
            k = spec.gram(x)
            assert np.count_nonzero(k) == np.count_nonzero(np.diagonal(k)) == 9
            assert not np.diagonal(k).imag.any(), seed
            y = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            alpha = fit_srkhs(ComplexDataset(X=x, y=y), spec, 1.0).alpha
            np.testing.assert_array_equal(alpha, y / (np.diagonal(k).real + 1.0))


def complex_formula_sqdist(a, b):
    """The distances as a complex GEMM and full-size temporaries form them."""
    aa = np.sum(np.abs(a) ** 2, axis=1)[:, None]
    bb = np.sum(np.abs(b) ** 2, axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * np.real(a @ b.conj().T), 0.0)


class TestSqdist:
    @pytest.mark.parametrize("shape", [(30, 1), (30, 5), (30,)])
    def test_matches_the_complex_formula(self, shape):
        rng = np.random.default_rng(44)
        a = as_samples(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), "a")
        # far-out near-duplicates: the cancellation that the clamp at 0 absorbs
        b = np.vstack([a[:10], 1e3 + a[:10], 1e3 + a[:10] + 1e-9])
        cases = [(a, a), (a, b), (b, b), (a.real, b.imag)]
        for x, z in cases:
            ref = complex_formula_sqdist(x, z)
            d2 = kernels._sqdist(x, z)
            if z is x:  # the packed lower triangle
                assert d2.shape == (len(x) * (len(x) + 1) // 2,)
                d2 = unpacked(d2)
            assert (d2 >= 0).all()
            np.testing.assert_allclose(d2, ref, rtol=0, atol=1e-12 * ref.max())

    @pytest.mark.parametrize("family", [f for f in zoo_specs() if f != "complex_gaussian"])
    def test_a_sample_whose_distances_overflow_is_refused(self, family):
        # |x|^2 = inf made NaN entries (inf - inf) with RuntimeWarnings
        spec = zoo_specs()[family]
        for call, name in [(lambda: spec.gram([0.0, 1e300]), "x"),
                           (lambda: spec.pair([0.0], [1e300j]), "z"),
                           (lambda: kernels.apply_pairs([1e300], [0.0], [(spec, [1.0])]), "x"),
                           (lambda: kernels._sqdist(as_samples([0.0, 7e153], "x"),
                                                    as_samples([0.0], "z")), "x")]:
            with pytest.raises(ValueError, match=f"^{name} has a sample of squared norm"):
                call()
        far = spec.gram([0.0, 6.6e153 * (1 + 1j) / 2**0.5])  # |x|^2 just below the bound
        np.testing.assert_array_equal(np.diag(far), spec.diag([0.0, 6.6e153])[0])
        assert far[0, 1] == 0

    def test_peak_is_the_output(self):
        x = random_inputs(np.random.default_rng(46), 2000, 5)
        tracemalloc.start()
        try:
            d2 = kernels._sqdist(x, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        packed = 8 * 2000 * 2001 // 2  # the packed triangle, n (n + 1) / 2 doubles
        assert d2.nbytes == packed
        assert peak <= 1.25 * packed, peak / packed

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 300, 301])
    def test_packed_triangle_of_either_parity(self, n):
        # the norm add follows the packed layout of even and odd orders alike
        x = as_samples(random_inputs(np.random.default_rng(47), n, 2), "x")
        ref = complex_formula_sqdist(x, x)
        d2 = unpacked(kernels._sqdist(x, x))
        np.testing.assert_allclose(d2, ref, rtol=0, atol=1e-12 * max(1.0, ref.max()))


def gaussian_sums_reference(d2, gammas, columns):
    """``c_0 e_0 + c_1 e_1 + ...`` term by term in gamma order, each
    ``e_g = exp(d2 / -gamma_g)`` a full matrix; zero terms are left out."""
    exps = [np.exp(d2 / -g) for g in gammas]
    sums = []
    for col in columns:
        terms = [c * e for c, e in zip(col, exps) if c]
        sums.append(sum(terms[1:], terms[0]) if terms else np.zeros(d2.shape))
    return sums


class TestGaussianSums:
    @staticmethod
    def distances(tri):
        # 300 samples cross several tiles of the packed triangle and, past
        # APPLY_BLOCK_ROWS rows, of the 300 x 90 rectangle
        rng = np.random.default_rng(48)
        x = as_samples(random_inputs(rng, 300, 2), "x")
        d2 = kernels._sqdist(x, x if tri else as_samples(random_inputs(rng, 90, 2), "z"))
        assert len(list(kernels._tiles(d2.reshape(len(d2), -1).shape))) == (12 if tri else 7)
        return d2

    @staticmethod
    def terms(m):
        # m gammas; a real column, a complex one (with a unit term) and a zero one
        gammas = [0.7, 2.0, 1.3, 4.5][:m]
        return gammas, [[1.0, 0.0, -0.4, 2.5][:m], [0.3 - 1.2j, 1.0, 0.0, 0.5j][:m], [0.0] * m]

    @staticmethod
    def assert_sums(sums, d2, gammas, columns):
        # bit-equal to the reference, in the layout of the distances
        ref = gaussian_sums_reference(d2, gammas, columns)
        for s, r, col in zip(sums, ref, columns):
            assert s.dtype == np.result_type(np.float64, *col)
            np.testing.assert_array_equal(s, r)

    @pytest.mark.parametrize("tri", [True, False])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_default_outputs(self, tri, m, monkeypatch):
        # the outputs _combine passes, over distances it takes from _sqdist; the
        # spec only lists the gammas, the columns are the test's
        gammas, columns = self.terms(m)
        spec = SumOfSeparable(terms=tuple((RealGaussian(g), 0.0) for g in gammas))
        assert list(spec._coefficients()) == gammas
        d2 = self.distances(tri)
        before = d2.copy()
        monkeypatch.setattr(kernels, "_sqdist", lambda a, b: d2)
        sums = spec._combine(None, None, columns)
        assert sums[0] is d2  # the last real sum with a term takes the distances
        self.assert_sums(sums, before, gammas, columns)
        # without a real sum to take them, the distances are only read
        d2 = self.distances(tri)
        before = d2.copy()
        sums = spec._combine(None, None, columns[1:])
        assert d2.tobytes() == before.tobytes()
        self.assert_sums(sums, before, gammas, columns[1:])

    @pytest.mark.parametrize("tri", [True, False])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_given_outputs(self, tri, m):
        gammas, columns = self.terms(m)
        # the distances as the one output: each tile read from a copy when a
        # gamma before the last weights them (m > 1), else in place, written
        # after the last divide
        for col in (columns[0], [0.0] * (m - 1) + [1.5]):
            d2 = self.distances(tri)
            before = d2.copy()
            assert kernels._gaussian_sums(d2, gammas, [col], [d2])[0] is d2
            self.assert_sums([d2], before, gammas, [col])
        # buffers that exclude the distances: every gamma reads them unchanged,
        # and an all-zero column's buffer is set to 0
        d2 = self.distances(tri)
        before = d2.copy()
        outs = [np.full_like(d2, np.nan, np.result_type(np.float64, *col)) for col in columns]
        sums = kernels._gaussian_sums(d2, gammas, columns, outs)
        assert all(s is o for s, o in zip(sums, outs))
        assert d2.tobytes() == before.tobytes()
        self.assert_sums(sums, before, gammas, columns)
        # the distances as the output of an all-zero column
        assert not kernels._gaussian_sums(d2, gammas, [[0.0] * m], [d2])[0].any()

    def test_overflowing_exponent_is_zero_without_warning(self):
        # 1e22 / 1e-300 overflows to -inf, whose exp is 0, as exp of any
        # exponent below about -745 is
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = RealGaussian(gamma=1e-300).gram([0, 1e11])
        np.testing.assert_array_equal(k, np.eye(2))


# the largest scale whose coefficient 2 * scale is finite, and the next float up
HALF_MAX = sys.float_info.max / 2
ABOVE_HALF_MAX = math.nextafter(HALF_MAX, math.inf)


def bounded_spec(name, half):
    """A sum of Gaussians of family ``name`` whose coefficient moduli sum to ``2 * half``."""
    if name == "sum_of_separable":
        return SumOfSeparable(terms=((RealGaussian(1.0, scale=half), 0.0),))
    rr, jj = RealGaussian(1.0, scale=half / 2), RealGaussian(2.0, scale=half / 2)
    if name == "separate_real_imag":
        return SeparateRealImag(rr=rr, jj=jj)
    return RealImagBlocks(rr=rr, jj=jj, rj=RealGaussian(3.0, scale=0.0),
                          jr=RealGaussian(3.0, scale=0.0))


class TestOverflowingCoefficients:
    """A sum of Gaussians whose coefficients' moduli sum to a non-finite bound on
    every entry of K, Kt and the ridge systems is refused at construction,
    naming its family; at the largest finite bound its values are finite."""

    @pytest.mark.parametrize("name", ["sum_of_separable", "separate_real_imag",
                                      "real_imag_blocks"])
    def test_both_sides_of_the_bound(self, name):
        x = as_samples(random_inputs(np.random.default_rng(49), 5, 2), "x")
        spec = bounded_spec(name, HALF_MAX)
        for values in (*spec.pair(x), *spec._ridge_systems(x)[1]):
            assert np.isfinite(values).all()
        with pytest.raises(ValueError, match=f"{name} kernel coefficients overflow"):
            bounded_spec(name, ABOVE_HALF_MAX)

    @pytest.mark.parametrize("config", [
        {"family": "sum_of_separable",
         "params": {"terms": [{"weight": 0.5, "gamma": 1.0, "scale": 1e308}]}},
        {"family": "separate_real_imag",
         "params": {"rr": {"gamma": 1.0, "scale": 1e308}, "jj": {"gamma": 2.0, "scale": 1e308}}},
    ], ids=["sum_of_separable", "separate_real_imag"])
    def test_from_config(self, config):
        with pytest.raises(ValueError, match=f"{config['family']} kernel coefficients overflow"):
            kernel_from_config(config)

    def test_a_lone_real_gaussian_keeps_a_finite_scale(self):
        spec = kernel_from_config({"family": "real_gaussian",
                                   "params": {"gamma": 1.0, "scale": 1e308}})
        assert spec.gram([0.0, 1.0])[0, 0] == 1e308


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
        # an aligned pair, Kt = p S: the real (K + S, K - S) with h = 1 + p
        x = random_inputs(np.random.default_rng(29), 6, 2)
        for name in ("real_imag_blocks", "separate_real_imag", "sum_of_separable"):
            spec = specs[name]
            k, kt = spec.pair(x)
            h, (plus, minus) = ridge_systems(spec, x)
            assert h == 1 + spec.phase, name
            assert plus.dtype == minus.dtype == np.float64, name
            np.testing.assert_allclose((plus + minus) / 2, k, atol=1e-14, err_msg=name)
            np.testing.assert_allclose(
                spec.phase * (plus - minus) / 2, kt, atol=1e-14, err_msg=name
            )
        # no phase: one 2n system, [[K + Re Kt, Im Kt], [Im Kt, K - Re Kt]] with h = 2,
        # the composite matrix of the pair. 300 and 301 rows take 23 full row tiles of 13
        # and a partial last one; there the oracle's squared distances, from one product
        # over all rows, round apart from the tiles' at the diagonal (by 1.6e-14 at 301)
        spec = mixed_gamma_blocks()
        for n, atol in ((6, 1e-14), (300, 2e-14), (301, 2e-14)):
            x = random_inputs(np.random.default_rng(29), n, 2)
            h, systems = ridge_systems(spec, x)
            assert h == 2 and len(systems) == 1
            assert systems[0].dtype == np.float64 and systems[0].shape == (2 * n, 2 * n)
            assert spec._ridge_systems(as_samples(x, "x"))[1][0].shape == (n * (2 * n + 1),)
            np.testing.assert_allclose(
                systems[0], composite_matrix(*spec.pair(x)), rtol=0, atol=atol, err_msg=n
            )

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
            kcom = composite_matrix(*spec.pair(x))
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
                a = kernel_value(spec, x, z)
                b = kernel_value(spec, z, x)
                assert a.real == pytest.approx(b.real, abs=1e-13)
                assert a.imag == pytest.approx(-b.imag, abs=1e-13)

    def test_real_gaussian_stationary(self):
        rng = np.random.default_rng(21)
        spec = RealGaussian(gamma=0.8)
        for _ in range(25):
            x = random_inputs(rng, 1, 2)[0]
            z = random_inputs(rng, 1, 2)[0]
            c = random_inputs(rng, 1, 2)[0]
            assert kernel_value(spec, x, z) == pytest.approx(
                kernel_value(spec, x + c, z + c), abs=1e-14
            )

    def test_complex_gaussian_not_stationary(self):
        spec = ComplexGaussian(gamma=60.0)
        x = np.array([0.5 + 0.5j])
        z = np.array([-0.3 + 0.1j])
        shift = np.array([2.0j])
        shifted = kernel_value(spec, x + shift, z + shift)
        assert kernel_value(spec, x, z) != pytest.approx(shifted)

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
        bads = [
            # rr/jj blocks with an overweight cross term are not a valid pair
            RealImagBlocks(
                rr=RealGaussian(gamma=1.0, scale=0.2),
                jj=RealGaussian(gamma=1.0, scale=0.2),
                rj=RealGaussian(gamma=1.0, scale=1.0),
                jr=RealGaussian(gamma=1.0, scale=1.0),
            ),
            # mixed gammas: s_rr s_jj (g_rr g_jj)^(D/2) < s_rj^2 g_rj^D at scale 1
            RealImagBlocks(
                rr=RealGaussian(gamma=0.9, scale=1.0),
                jj=RealGaussian(gamma=3.1, scale=1.0),
                rj=RealGaussian(gamma=2.0, scale=1.0),
                jr=RealGaussian(gamma=2.0, scale=1.0),
            ),
        ]
        rng = np.random.default_rng(23)
        x = random_inputs(rng, 10, 1)
        for bad in bads:
            assert min_composite_eigenvalue(bad, x) < -1e-10

    def test_overflow_guard(self):
        spec = ComplexGaussian(gamma=80.0)
        x = np.array([[130.0j]])
        with pytest.warns(KernelOverflowWarning):
            k = spec.gram(x, x)
        assert np.isfinite(k).all()
        assert k[0, 0].real == pytest.approx(np.exp(700.0))

    def test_an_infinite_real_exponent_vanishes_or_saturates(self):
        # gamma 1e-300: exponents overflow to -inf (exp 0) or to +inf (clipped at 700)
        spec = ComplexGaussian(gamma=1e-300)
        np.testing.assert_array_equal(spec.gram([0.0, 1e10]), np.eye(2))
        np.testing.assert_array_equal(spec.gram([1e10], [0.0]), [[0.0]])
        with pytest.warns(KernelOverflowWarning):
            k = spec.gram([1e10j])
        assert k[0, 0] == np.exp(700.0)

    @pytest.mark.parametrize("z", [None, [[0.0]]])
    def test_an_exponent_without_phase_is_refused(self, z):
        # the imaginary part of exp(-(x - z*)^2 / gamma)'s exponent is infinite
        with pytest.raises(ValueError, match="no defined phase"):
            ComplexGaussian(gamma=1e-300).gram([[0.0], [1e10 + 1e10j]], z)


def gaussian_params(gamma, scale=1.0):
    return {"gamma": gamma, "scale": scale}


# The JSON object of each spec. Benchmark and kernel-surface hashes are taken
# over these, so a change to any of them changes every stored hash.
PINNED_CONFIGS = {
    "real_gaussian": ("real_gaussian", gaussian_params(0.8)),
    "complex_gaussian": ("complex_gaussian", {"gamma": 60.0}),
    "independent": ("independent", {"gamma": 0.8}),
    "real_imag_blocks": ("real_imag_blocks", {
        "rr": gaussian_params(1.3), "jj": gaussian_params(1.3, 0.7),
        "rj": gaussian_params(1.3, 0.4), "jr": gaussian_params(1.3, 0.4),
    }),
    "separate_real_imag": ("separate_real_imag", {
        "rr": gaussian_params(0.9), "jj": gaussian_params(3.1),
    }),
    "sum_of_separable": ("sum_of_separable", {"terms": [
        {"weight": 0.3, **gaussian_params(2.0)}, {"weight": 0.6, **gaussian_params(0.7)},
    ]}),
    "mixed_gamma_blocks": ("real_imag_blocks", {
        "rr": gaussian_params(0.9), "jj": gaussian_params(3.1, 0.7),
        "rj": gaussian_params(2.0, 0.2), "jr": gaussian_params(2.0, 0.2),
    }),
}


class TestConfigRoundtrip:
    def test_all_families(self, specs):
        rng = np.random.default_rng(24)
        x = random_inputs(rng, 4, 2)
        z = random_inputs(rng, 3, 2)
        specs = {**specs, "mixed_gamma_blocks": mixed_gamma_blocks()}
        assert specs.keys() == PINNED_CONFIGS.keys()
        for name, spec in specs.items():
            family, params = PINNED_CONFIGS[name]
            assert spec.to_config() == {"family": family, "params": params}, name
            clone = kernel_from_config(spec.to_config())
            assert clone == spec, name
            np.testing.assert_array_equal(clone.gram(x, z), spec.gram(x, z))
            np.testing.assert_array_equal(
                clone.pseudo_gram(x, z), spec.pseudo_gram(x, z)
            )

    @pytest.mark.parametrize(
        "config,spec",
        [
            # a param key that is not a field is ignored
            ({"family": "independent", "params": {"gamma": 0.8, "note": "x"}},
             IndependentGaussian(gamma=0.8)),
            ({"family": "sum_of_separable",
              "params": {"terms": [{"weight": 0.3, "gamma": 2.0, "shape": 1}]}},
             SumOfSeparable(terms=((RealGaussian(gamma=2.0), 0.3),))),
            # numbers and numeric strings go through float
            ({"family": "real_gaussian", "params": {"gamma": "2.0", "scale": 3}},
             RealGaussian(gamma=2.0, scale=3.0)),
            ({"family": "separate_real_imag",
              "params": {"rr": {"gamma": 1}, "jj": {"gamma": "2.5"}}},
             SeparateRealImag(rr=RealGaussian(gamma=1.0), jj=RealGaussian(gamma=2.5))),
        ],
    )
    def test_tolerated_inputs(self, config, spec):
        loaded = kernel_from_config(config)
        assert loaded == spec
        # the params are floats, so the config (and its hash) is the spec's
        assert json.dumps(loaded.to_config()) == json.dumps(spec.to_config())

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


@pytest.mark.parametrize(
    "call, error, field",
    [
        (lambda: SeparateRealImag(rr=RealGaussian(1.0), jj=ComplexGaussian(1.0)),
         TypeError, "^block kernel jj"),
        (lambda: SumOfSeparable(terms=((ComplexGaussian(1.0), 0.5),)),
         TypeError, "^block kernel terms"),
        (lambda: SumOfSeparable(terms=()), ValueError, "^terms"),
        (lambda: kernel_from_config({"params": {"gamma": 1.0}}), ValueError, "'family'"),
    ],
    ids=["block_kernel", "separable_term_kernel", "no_terms", "no_family"],
)
def test_every_input_check_names_its_field(call, error, field):
    with pytest.raises(error, match=field):
        call()
