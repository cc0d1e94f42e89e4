"""Tests for the composite/augmented algebra and Hermitian solves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wrkhs import (
    ComplexDataset,
    NumericalError,
    augmented_to_composite,
    composite_to_augmented,
    conjugate_solve,
    from_composite,
    hermitian_solve,
    to_augmented,
    to_composite,
    transform_matrix,
)
from wrkhs.core import ASYMMETRY_BLOCK_ROWS

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
complex_vectors = st.integers(1, 12).flatmap(
    lambda n: arrays(
        np.complex128,
        (n,),
        elements=st.builds(complex, finite, finite),
    )
)


class TestComposite:
    def test_definition(self):
        np.testing.assert_array_equal(to_composite([1 + 2j]), [1.0, 2.0])

    def test_zero_case(self):
        np.testing.assert_array_equal(to_composite([0, 0]), [0.0, 0.0, 0.0, 0.0])

    def test_mixed(self):
        np.testing.assert_array_equal(
            to_composite([3 - 1j, -2j]), [3.0, 0.0, -1.0, -2.0]
        )

    @given(complex_vectors)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_exact(self, v):
        np.testing.assert_array_equal(from_composite(to_composite(v)), v)


class TestAugmented:
    def test_definition(self):
        np.testing.assert_array_equal(to_augmented([1 + 2j]), [1 + 2j, 1 - 2j])

    def test_real_vector_duplicates(self):
        v = np.array([1.5, -2.0], dtype=complex)
        np.testing.assert_array_equal(to_augmented(v), np.concatenate([v, v]))

    def test_pure_imaginary(self):
        np.testing.assert_array_equal(to_augmented([1j]), [1j, -1j])


class TestTransform:
    def test_scalar_expansion(self):
        np.testing.assert_array_equal(composite_to_augmented([1.0, 2.0]), [1 + 2j, 1 - 2j])

    def test_real_scalar(self):
        np.testing.assert_array_equal(composite_to_augmented([3.0, 0.0]), [3.0, 3.0])

    def test_inverse_returns_input(self):
        vc = np.array([0.3, -1.2, 4.0, 0.5])
        np.testing.assert_allclose(
            augmented_to_composite(composite_to_augmented(vc)), vc, atol=0
        )

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            composite_to_augmented([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_t_times_th_is_2i(self, n):
        t = transform_matrix(n)
        eye2 = 2 * np.eye(2 * n)
        np.testing.assert_allclose(t @ t.conj().T, eye2, atol=1e-14)
        np.testing.assert_allclose(t.conj().T @ t, eye2, atol=1e-14)

    @given(complex_vectors)
    @settings(max_examples=60, deadline=None)
    def test_composite_route_matches_augmented(self, v):
        np.testing.assert_allclose(
            composite_to_augmented(to_composite(v)), to_augmented(v), atol=0
        )

    @given(complex_vectors)
    @settings(max_examples=30, deadline=None)
    def test_matrix_application_matches(self, v):
        t = transform_matrix(len(v))
        np.testing.assert_allclose(
            t @ to_composite(v), to_augmented(v), rtol=1e-12, atol=1e-9
        )


class TestHermitianSolve:
    def test_identity(self):
        b = np.array([1 + 2j, -3.0, 0.5j])
        np.testing.assert_array_equal(hermitian_solve(np.eye(3), b), b)

    def test_scaling_exact(self):
        v = np.array([1 + 2j, -3.0, 0.5j])
        np.testing.assert_array_equal(hermitian_solve(2 * np.eye(3), v), v / 2)

    def test_diagonal_exact(self):
        d = np.diag([2.0, 5.0, 0.125])
        b = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(
            hermitian_solve(d, b), np.array([0.5, 0.4, 24.0])
        )

    def test_random_hermitian_pd_residual(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        a = m @ m.conj().T + 0.5 * np.eye(5)
        b = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        x = hermitian_solve(a, b)
        resid = np.linalg.norm(a @ x - b)
        assert resid <= 1e-10 * np.linalg.norm(b)

    def test_real_matrix_complex_rhs(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((4, 4))
        a = m @ m.T + np.eye(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x = hermitian_solve(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_non_hermitian_rejected(self):
        a = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_solve(a, np.ones(2))

    def test_asymmetry_beyond_first_row_block_rejected(self):
        n = ASYMMETRY_BLOCK_ROWS + 5
        a = np.eye(n, dtype=complex)
        a[n - 1, n - 2] = a[n - 2, n - 1] = 0.1
        hermitian_solve(a, np.ones(n))
        a[n - 1, n - 2] += 1e-9j
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_solve(a, np.ones(n))

    def test_indefinite_fails_hard(self):
        a = np.diag([1.0, -1.0]) + np.array([[0.0, 0.3], [0.3, 0.0]])
        with pytest.raises(NumericalError):
            hermitian_solve(a, np.ones(2))

    def test_conjugate_solve(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = m @ m.conj().T + np.eye(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x = conjugate_solve(a, b)
        assert np.linalg.norm(a.conj() @ x - b) <= 1e-9


class TestComplexDataset:
    def test_basic(self):
        data = ComplexDataset(X=np.ones((3, 2), dtype=complex), y=np.ones(3))
        assert data.n == 3
        assert data.d == 2

    def test_1d_inputs_promoted(self):
        data = ComplexDataset(X=np.array([1j, 2j]), y=np.array([1.0, 2.0]))
        assert data.X.shape == (2, 1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            ComplexDataset(X=np.ones((3, 1)), y=np.ones(2))

    @pytest.mark.parametrize("field", ["X", "y"])
    @pytest.mark.parametrize("bad", [np.nan, -np.inf, complex(0, np.nan)])
    def test_nonfinite_rejected(self, field, bad):
        arrays = {"X": np.ones((3, 2), dtype=complex), "y": np.ones(3, dtype=complex)}
        arrays[field][(1,) * arrays[field].ndim] = bad
        with pytest.raises(ValueError, match=f"^{field} contains non-finite values"):
            ComplexDataset(**arrays)

    def test_arrays_readonly(self):
        data = ComplexDataset(X=np.ones((2, 1)), y=np.ones(2))
        with pytest.raises(ValueError):
            data.X[0, 0] = 5.0
