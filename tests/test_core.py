"""Tests for the composite transform, Hermitian solves, the dataset container,
the input rule every public entry shares, the JSON number codec and the
typed-field rule of every config."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from wrkhs import (
    ComplexDataset,
    NumericalError,
    RealGaussian,
    SeparateRealImag,
    WrkhsModel,
    Wrkls,
    core,
    kernels,
    predict,
    streaming_ridge_predictions,
)
from wrkhs.core import (
    as_float, from_pairs, hermitian_solve, packed, packed_inverse, ridge_factor, ridge_shift,
    ridge_solve, store_as_annotated, to_pairs, unpacked,
)
from conftest import transform_matrix


class TestTransform:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_t_times_th_is_2i(self, n):
        t = transform_matrix(n)
        eye2 = 2 * np.eye(2 * n)
        np.testing.assert_allclose(t @ t.conj().T, eye2, atol=1e-14)
        np.testing.assert_allclose(t.conj().T @ t, eye2, atol=1e-14)


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

    def test_asymmetry_in_the_last_rows_rejected(self):
        n = 261
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

    def test_empty_system_solves(self):
        assert hermitian_solve(np.zeros((0, 0)), np.zeros(0)).shape == (0,)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_peak_is_the_packed_copy(self, dtype):
        # packing copies A (n^2) into its triangle (n^2 / 2); the asymmetry's one
        # n x n temporary is freed first, and a second one would add n^2 more
        n = 400
        m = np.random.default_rng(8).standard_normal((n, n)).astype(dtype)
        a = m @ m.T + n * np.eye(n)
        tracemalloc.start()
        try:
            hermitian_solve(a, np.ones(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.55 * a.nbytes, peak / a.nbytes


class TestHermitianFactor:
    """``ridge_factor`` factors a Hermitian matrix in the packed triangle it is
    given; ``rebuild`` hands over a fresh one."""

    @staticmethod
    def factor(a, lam=0.0):
        buffer = packed(a)
        low, shift = ridge_factor(buffer, lam, lambda: packed(a))
        assert low is buffer and shift == lam
        return np.tril(unpacked(low))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_lower_factor_leaves_the_input(self, dtype):
        # packing reads the lower triangle only, at orders of either parity
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 6, 7):
            m = rng.standard_normal((n, n)).astype(dtype)
            if dtype is complex:
                m += 1j * rng.standard_normal((n, n))
            a = m @ m.conj().T + np.eye(n)
            poisoned = a.copy()
            poisoned[np.triu_indices(n, 1)] = np.nan
            assert np.isfinite(packed(poisoned)).all()
            low = self.factor(poisoned, 0.5)
            np.testing.assert_allclose(low @ low.conj().T, a + 0.5 * np.eye(n), atol=1e-12)

    def test_jitter_retry_factors_a_singular_matrix_once(self, monkeypatch):
        # rank one: the plain factorization fails, 1e-12 * trace/n on the diagonal does not
        a = np.ones((3, 3))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(a)
        shifts = []

        def shift(m, lam):
            shifts.append(lam)
            return ridge_shift(m, lam)

        monkeypatch.setattr(core, "ridge_shift", shift)
        low, shift = ridge_factor(packed(a), 0.0, lambda: packed(a))
        low = np.tril(unpacked(low))
        jitter = 1e-12 * np.trace(a) / 3
        # lam on the first build, lam again on the second, then exactly the jitter
        assert shifts == [0.0, 0.0, jitter]
        assert shift == jitter
        # the packed Cholesky rounds apart from LAPACK's dense one, here by
        # 2.5e-13 of an entry, so the dense factor is matched to 1e-12
        np.testing.assert_allclose(low, np.linalg.cholesky(a + jitter * np.eye(3)), rtol=1e-12)

    def test_jitter_retry_logs_one_warning(self, caplog):
        a = np.ones((3, 3))
        with caplog.at_level("WARNING", logger="wrkhs.core"):
            ridge_factor(packed(a), 0.0, lambda: packed(a))
        assert [(r.name, r.levelname) for r in caplog.records] == [("wrkhs.core", "WARNING")]
        assert "order 3" in caplog.records[0].getMessage()

    def test_indefinite_after_the_jitter_fails_hard(self):
        with pytest.raises(NumericalError, match="indefinite"):
            self.factor(np.diag([1.0, -1.0]))


class TestRidgeInverse:
    """The inverse of a ridge system: ``ridge_factor`` factors a Hermitian matrix
    in the packed triangle it is given, and ``packed_inverse`` inverts the factor
    in place and unpacks the inverse's lower triangle."""

    @staticmethod
    def system(n, dtype, seed=0):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n)).astype(dtype)
        if dtype is complex:
            m += 1j * rng.standard_normal((n, n))
        return m @ m.conj().T + n * np.eye(n)

    @staticmethod
    def invert(a, rebuild):
        low, jitter = ridge_factor(packed(a), 0.0, rebuild)
        return packed_inverse(low), jitter

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 300, 513])
    def test_matches_the_dense_inverse(self, n, dtype):
        a = self.system(n, dtype, seed=n)
        rebuilds = []
        inv, jitter = self.invert(a, lambda: rebuilds.append(1) or packed(a))
        assert inv.shape == (n, n) and inv.dtype == a.dtype and inv.flags.f_contiguous
        assert jitter == 0.0 and rebuilds == []
        assert not np.triu(inv, 1).any()
        want = np.linalg.inv(a) if n else np.zeros((0, 0))
        np.testing.assert_allclose(unpacked(packed(inv)), want, rtol=0,
                                   atol=1e-13 * np.abs(want).max(initial=1.0))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_duplicate_rows_take_one_jitter_retry(self, dtype, caplog):
        # rows 0 and 1 are equal: A is singular, and the retry inverts A + jitter I
        # in a buffer rebuilt once
        x = np.array([0.0, 0.0, 1.0, 2.5])
        a = np.exp(-np.subtract.outer(x, x) ** 2).astype(dtype)
        rebuilds = []
        with caplog.at_level("WARNING", logger="wrkhs.core"):
            inv, jitter = self.invert(a, lambda: rebuilds.append(1) or packed(a))
        assert rebuilds == [1]
        assert [(r.name, r.levelname) for r in caplog.records] == [("wrkhs.core", "WARNING")]
        assert jitter == pytest.approx(1e-12, rel=1e-12, abs=0)
        # entries up to 5e11: matched to 1e-12 of the largest
        want = np.linalg.inv(a + jitter * np.eye(4))
        np.testing.assert_allclose(unpacked(packed(inv)), want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())

    def test_indefinite_fails_hard(self):
        a = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(NumericalError, match="indefinite"):
            ridge_factor(packed(a), 0.0, lambda: packed(a))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_singular_factor_fails_hard(self, dtype):
        # a zero on the factor's diagonal: ?pftri reports it
        with pytest.raises(NumericalError, match="order-3 Cholesky factor"):
            packed_inverse(packed(np.diag([1.0, 0.0, 2.0]).astype(dtype)))

    def test_overwrites_the_factor(self):
        a = self.system(5, float)
        low, _ = ridge_factor(packed(a), 0.0, lambda: packed(a))
        before = low.copy()
        inv = packed_inverse(low)
        np.testing.assert_allclose(low, packed(inv), rtol=0, atol=0)
        assert not np.array_equal(low, before)

    @pytest.mark.parametrize("n", [2, core.SMALL_SYSTEM_ORDER - 1, core.SMALL_SYSTEM_ORDER])
    def test_limit_follows_the_order(self, n, monkeypatch):
        limits = []
        real = core.limit_blas_threads

        def recording(limit):
            limits.append(limit)
            return real(limit)

        monkeypatch.setattr(core, "limit_blas_threads", recording)
        a = np.eye(n) + 0.25 * np.ones((n, n)) / n
        inv, _ = self.invert(a, lambda: packed(a))
        np.testing.assert_allclose(unpacked(packed(inv)) @ a, np.eye(n), atol=1e-12)
        # the factorization and the inverse
        assert limits == ([1, 1] if n < core.SMALL_SYSTEM_ORDER else [])


class TestSmallSystemThreads:
    """A system of order below ``SMALL_SYSTEM_ORDER`` is factored and solved
    at one BLAS thread; a larger one keeps the pools as they are."""

    @pytest.mark.parametrize("n", [2, core.SMALL_SYSTEM_ORDER - 1, core.SMALL_SYSTEM_ORDER])
    def test_limit_follows_the_order(self, n, monkeypatch):
        limits = []
        real = core.limit_blas_threads

        def recording(limit):
            limits.append(limit)
            return real(limit)

        monkeypatch.setattr(core, "limit_blas_threads", recording)
        a = np.eye(n) + 0.25 * np.ones((n, n)) / n
        x, _ = ridge_solve(packed(a), 0.5, np.ones(n), lambda: packed(a))
        np.testing.assert_allclose(a @ x + 0.5 * x, np.ones(n), atol=1e-12)
        # the factorization and the solve
        assert limits == ([1, 1] if n < core.SMALL_SYSTEM_ORDER else [])


class TestExactDiagonal:
    """An exactly diagonal packed system is solved by division, one pass over
    the packed triangle deciding it; any off-diagonal non-zero goes to the
    Cholesky."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9])
    def test_diagonal_is_divided(self, n):
        d = np.arange(1.0, n + 1.0)
        b = np.ones(n) + 1j
        x, shift = ridge_solve(packed(np.diag(d)), 0.5, b, lambda: None)
        np.testing.assert_array_equal(x, b / (d + 0.5))
        assert shift == 0.5

    @pytest.mark.parametrize("n", [2, 3, 8, 9])
    def test_last_column_entry_goes_to_the_cholesky(self, n):
        # the only off-diagonal non-zero is in the last column (and row): a
        # diagonal solve would ignore it, and here it makes A indefinite
        a = np.eye(n)
        a[n - 1, n - 2] = a[n - 2, n - 1] = 2.0
        with pytest.raises(NumericalError):
            ridge_solve(packed(a), 0.0, np.ones(n), lambda: packed(a))
        a[n - 1, n - 2] = a[n - 2, n - 1] = 0.5
        x, shift = ridge_solve(packed(a), 0.0, np.ones(n), lambda: packed(a))
        np.testing.assert_allclose(x, np.linalg.solve(a, np.ones(n)), rtol=1e-14)
        assert shift == 0.0


class TestRidgeShift:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_adds_lam_to_the_diagonal_only(self, dtype):
        rng = np.random.default_rng(3)
        full = rng.standard_normal((5, 5)).astype(dtype)
        a = packed(full)
        full[np.diag_indices(5)] += 0.3
        out = ridge_shift(a, 0.3)
        assert out is a
        np.testing.assert_array_equal(out, packed(full))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_no_full_size_temporary(self, dtype):
        n = 1000
        a = packed(np.ones((n, n), dtype=dtype))
        tracemalloc.start()
        try:
            ridge_shift(a, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.2 * a.nbytes, peak / a.nbytes

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_overflowing_diagonal_names_the_ridge_weight(self, dtype):
        # 1e308 + 1.7e308 overflows, refused with no numpy warning; 1 + 1.7e308 does not
        with pytest.raises(ValueError, match=r"ridge weight 1\.7e\+308 overflows"):
            ridge_shift(packed(np.full((3, 3), 1e308, dtype)), 1.7e308)
        assert np.isfinite(ridge_shift(packed(np.ones((3, 3), dtype)), 1.7e308)).all()


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


# a pair with a pseudo-kernel, so predict takes the one-gamma-at-a-time path
SPEC = SeparateRealImag(rr=RealGaussian(1.0), jj=RealGaussian(2.0))
MODEL = WrkhsModel(X=np.zeros((2, 1)), spec=SPEC, lam=0.1, alpha=np.ones(2))
ENTRIES = {
    "gram": SPEC.gram,
    "pair": SPEC.pair,
    "diag": SPEC.diag,
    "predict": lambda x: predict(MODEL, x),
    "streaming_ridge_predictions": lambda x: streaming_ridge_predictions(
        RealGaussian(1.0), x, np.ones(2), 0.1
    ),
    "ComplexDataset": lambda x: ComplexDataset(X=x, y=np.ones(2)),
    "WrkhsModel": lambda x: WrkhsModel(X=x, spec=SPEC, lam=0.1, alpha=np.ones(2)),
    "Wrkls.observe": lambda x: Wrkls(RealGaussian(1.0), 0.1).observe(x[0], 1.0),
    "Wrkls.observe_many": lambda x: Wrkls(RealGaussian(1.0), 0.1).observe_many(x, np.ones(2)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_nonfinite_input_rejected_before_any_gram(entry, bad, monkeypatch):
    def no_gram(*args):
        raise AssertionError("a Gram matrix was evaluated")

    monkeypatch.setattr(kernels, "_sqdist", no_gram)
    with pytest.raises(ValueError, match="contains non-finite values"):
        ENTRIES[entry](np.array([[bad], [1.0]]))


class TestNumberCodec:
    def test_as_float_reads_numbers_and_numeric_strings(self):
        values = (2, 0.5, "1e-3", np.float64(3.0))
        assert [as_float(v, "v") for v in values] == [2.0, 0.5, 1e-3, 3.0]

    @pytest.mark.parametrize("value", [True, False])
    def test_as_float_rejects_bool(self, value):
        with pytest.raises(ValueError, match="^gamma must be a number"):
            as_float(value, "gamma")

    @pytest.mark.parametrize("value", ["x", None, 1j])
    def test_as_float_names_what_is_not_a_number(self, value):
        with pytest.raises(ValueError, match="^gamma must be a number"):
            as_float(value, "gamma")

    def test_pairs_keep_every_bit(self):
        values = np.array([complex(-0.0, 0.1), complex(1e16, -0.0), complex(5e-324, -1e-5)])
        pairs = to_pairs(values)
        assert pairs == [[-0.0, 0.1], [1e16, -0.0], [5e-324, -1e-5]]
        assert all(type(part) is float for pair in pairs for part in pair)
        back = from_pairs(pairs, "v")
        assert back.dtype == np.complex128 and back.shape == (3,)
        for got, want in ((back.real, values.real), (back.imag, values.imag)):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_one_pair_is_a_scalar(self):
        z = complex(-0.0, 2.0)
        assert to_pairs(z) == [-0.0, 2.0]
        back = from_pairs([-0.0, 2], "c2")
        assert back.shape == () and complex(back) == z and np.signbit(back.real)
        assert to_pairs((1j, 2.0)) == [[0.0, 1.0], [2.0, 0.0]]

    @pytest.mark.parametrize(
        "value",
        [[[1.0, 2.0], [3.0]], [[1.0, 2.0, 3.0]], [0.1], "x", [["1", "2"]], [[1.0, "x"]], None, [],
         1.0, [[[1.0, 2.0]]], [[True, 0.5]], [[0.5, 0.0], [1, False]], [0.5, True]],
    )
    def test_from_pairs_rejects_malformed(self, value):
        with pytest.raises(ValueError, match=r"^taps must be an \[re, im\] pair"):
            from_pairs(value, "taps")


# annotations evaluated (no postponed annotations in this module): the rule
# reads them as it reads the package's string annotations
@dataclasses.dataclass(frozen=True)
class Annotated:
    count: int
    limit: int | None
    weight: float
    point: complex
    pair: tuple[complex, complex]
    note: str = "kept"

    def __post_init__(self):
        store_as_annotated(self)


VALID = {"count": 1, "limit": None, "weight": 1.0, "point": 0j, "pair": (0j, 0j)}


class TestStoreAsAnnotated:
    def test_json_values_are_stored_as_annotated(self):
        a = Annotated(count=3, limit=4, weight="0.5", point=[-0.0, 1], pair=[[1, 2], [3, -0.0]])
        assert (a.count, a.limit, a.weight, a.point, a.pair) == (3, 4, 0.5, 1j, (1 + 2j, 3 + 0j))
        assert type(a.weight) is float and type(a.point) is complex
        assert math.copysign(1, a.point.real) == -1 and math.copysign(1, a.pair[1].imag) == -1
        assert a.note == "kept"

    def test_python_values_are_stored_as_annotated(self):
        a = Annotated(count=np.int64(3), limit=None, weight=2, point=0.5, pair=(1, 2j))
        assert (a.count, a.limit, a.weight, a.point, a.pair) == (3, None, 2.0, 0.5 + 0j, (1 + 0j, 2j))
        assert [type(v) for v in (a.count, a.weight, a.point, *a.pair)] == [
            int, float, complex, complex, complex
        ]

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("count", 5.0, "count must be an integer"),
            ("count", None, "count must be an integer"),
            ("limit", True, "limit must be an integer"),
            ("weight", True, "weight must be a number"),
            ("weight", "x", "weight must be a number"),
            ("point", [[1, 2], [3, 4]], "point must be one [re, im] pair"),
            ("point", True, "point must be an [re, im] pair"),
            ("pair", [1, 2], "pair must be a list of 2 [re, im] pairs"),
            ("pair", (1, 2, 3), "pair must be a list of 2 [re, im] pairs"),
            ("pair", [[True, 0.5], [1, 2]], "pair must be an [re, im] pair"),
        ],
    )
    def test_rejects_naming_the_field(self, field, value, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            Annotated(**{**VALID, field: value})


@pytest.mark.parametrize(
    "call, error, field",
    [
        (lambda: core.ridge_solve(core.packed(np.eye(3)), 0.0, np.ones(2), None),
         ValueError, r"A is \(3, 3\), B is \(2,\)"),
        (lambda: core.ridge_solve(core.packed(-np.eye(3)), 0.0, np.ones(3), None),
         NumericalError, r"A \+ lam I"),
        (lambda: hermitian_solve(np.ones((2, 3)), np.ones(2)), ValueError, "^A must be square"),
        (lambda: hermitian_solve([[np.nan]], [1]), ValueError, "^A contains non-finite"),
        (lambda: hermitian_solve([[2, 0.5], [0.5, np.inf]], [1, 1]), ValueError,
         "^A contains non-finite"),
        (lambda: hermitian_solve(np.eye(2), [1, np.nan]), ValueError, "^B contains non-finite"),
    ],
    ids=["ridge_solve_shapes", "ridge_solve_diagonal", "hermitian_solve_square",
         "hermitian_solve_nan_a", "hermitian_solve_inf_a", "hermitian_solve_nan_b"],
)
def test_every_solver_check_names_its_operand(call, error, field):
    with pytest.raises(error, match=field):
        call()


@pytest.mark.parametrize("coupling", [0.0, 0.5], ids=["diagonal", "cholesky"])
def test_ridge_solve_checks_b_before_writing_the_buffer(coupling):
    # on either path a mismatched B is refused before the shift writes A's buffer
    a = np.eye(3)
    a[2, 1] = a[1, 2] = coupling
    buffer = packed(a)
    before = buffer.copy()
    with pytest.raises(ValueError, match=r"A is \(3, 3\), B is \(2,\)"):
        ridge_solve(buffer, 0.5, np.ones(2), lambda: packed(a))
    np.testing.assert_array_equal(buffer, before)
