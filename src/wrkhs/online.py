"""Budgeted recursive kernel least squares for null-pseudo-kernel models.

:class:`Wrkls` admits every observed sample into its dictionary through a
rank-1 update of the maintained inverse ``Q = (K_DD + lam I)^-1`` and, when a
basis budget M is set, evicts the basis with the smallest pruning score

    score_i = |alpha_i|^2 / Q_ii

via a rank-1 downdate. The score equals the increase of the regularized
least-squares objective caused by removing basis i (exactly the
``(K + lam I)``-norm of the coefficient perturbation), so eviction removes
the least informative basis. Without a budget the recursion reproduces the
batch ridge solution on all samples seen so far.

:func:`streaming_ridge_predictions` computes the same unbounded prediction
sequence in one Cholesky factorization (prequential form), used by the
benchmark runners where streams are long.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .core import NumericalError, hermitian_solve
from .kernels import KernelSpec
from .regression import WrkhsModel

__all__ = ["Wrkls", "streaming_ridge_predictions"]

# Observe calls between self-checks of the maintained inverse.
RESIDUAL_CHECK_INTERVAL = 128

# Max tolerated |Q (K + lam I) - I| before a full rebuild is forced.
RESIDUAL_TOL = 1e-6


class Wrkls:
    """Online recursive ridge with an optional dictionary budget.

    Parameters
    ----------
    spec : KernelSpec
        Kernel with identically-zero pseudo-kernel (the recursion is defined
        only for the strictly-complex case).
    lam : float
        Ridge weight, strictly positive.
    budget : int or None
        Maximum dictionary size M; ``None`` keeps every sample.

    A model instance is owned by a single updater; create an immutable copy
    with :meth:`snapshot` for concurrent prediction.
    """

    def __init__(self, spec: KernelSpec, lam: float, budget: int | None = None):
        if not spec.has_null_pseudo:
            raise ValueError(
                "online recursion requires a null pseudo-kernel; "
                f"family {spec.family!r} has a pseudo-kernel"
            )
        lam = float(lam)
        if not lam > 0:
            raise ValueError(f"lam must be strictly positive, got {lam}")
        if budget is not None:
            budget = int(budget)
            if budget < 1:
                raise ValueError(f"budget must be >= 1, got {budget}")
        self.spec = spec
        self.lam = lam
        self.budget = budget
        self._dtype = np.float64 if spec.is_real_valued else np.complex128
        self._m = 0
        self._dim: int | None = None
        self._observed = 0
        self._cap = 0
        self._D: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._Q: np.ndarray | None = None
        self._work: np.ndarray | None = None

    # -- public state -------------------------------------------------------

    @property
    def size(self) -> int:
        """Current dictionary size."""
        return self._m

    @property
    def dictionary(self) -> np.ndarray:
        """Copy of the dictionary inputs, shape (size, d)."""
        if self._m == 0:
            return np.empty((0, self._dim or 0), dtype=np.complex128)
        return self._D[: self._m].copy()

    @property
    def coefficients(self) -> np.ndarray:
        """Copy of the coefficient vector, one entry per basis."""
        if self._m == 0:
            return np.empty(0, dtype=np.complex128)
        return self._alpha[: self._m].copy()

    @property
    def targets(self) -> np.ndarray:
        """Copy of the retained per-basis targets."""
        if self._m == 0:
            return np.empty(0, dtype=np.complex128)
        return self._y[: self._m].copy()

    def snapshot(self) -> WrkhsModel:
        """Immutable batch model over the current dictionary."""
        if self._m == 0:
            raise ValueError("cannot snapshot an empty model")
        return WrkhsModel(
            X=self.dictionary, spec=self.spec, lam=self.lam, alpha=self.coefficients
        )

    # -- prediction ---------------------------------------------------------

    def predict(self, x) -> complex:
        """Kernel expansion over the current dictionary (0 when empty)."""
        x = self._check_input(x, grow=False)
        if self._m == 0:
            return 0.0 + 0.0j
        row = self.spec.gram(x[None, :], self._D[: self._m])[0]
        return complex(row @ self._alpha[: self._m])

    def predict_batch(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        if x.ndim == 1:
            x = x[:, None]
        if self._m == 0:
            return np.zeros(x.shape[0], dtype=np.complex128)
        if self._dim is not None and x.shape[1] != self._dim:
            raise ValueError(f"expected dimension {self._dim}, got {x.shape[1]}")
        return np.asarray(
            self.spec.gram(x, self._D[: self._m]) @ self._alpha[: self._m],
            dtype=np.complex128,
        )

    # -- update -------------------------------------------------------------

    def observe(self, x, y) -> complex:
        """Predict ``y`` from pre-update state, then admit (x, y).

        Returns the prediction made *before* the update. When the dictionary
        exceeds the budget, the minimal-score basis is evicted.
        """
        x = self._check_input(x, grow=True)
        y = complex(y)
        pred = self._admit(x, y)
        if self.budget is not None and self._m > self.budget:
            self._prune(int(np.argmin(self._scores())))
        self._observed += 1
        if self._observed % RESIDUAL_CHECK_INTERVAL == 0:
            if self.inverse_residual() > RESIDUAL_TOL:
                self._rebuild()
        return pred

    def inverse_residual(self) -> float:
        """``max |Q (K_DD + lam I) - I|`` over the current dictionary."""
        m = self._m
        if m == 0:
            return 0.0
        a = self._regularized_gram()
        r = self._Q[:m, :m] @ a - np.eye(m)
        return float(np.max(np.abs(r)))

    # -- internals ----------------------------------------------------------

    def _check_input(self, x, grow: bool) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128).ravel()
        if self._dim is None:
            if grow:
                self._dim = x.shape[0]
            return x
        if x.shape[0] != self._dim:
            raise ValueError(f"expected dimension {self._dim}, got {x.shape[0]}")
        return x

    def _ensure_capacity(self, need: int) -> None:
        if need <= self._cap:
            return
        if self.budget is not None:
            new_cap = self.budget + 1
        else:
            new_cap = max(16, 2 * self._cap, need)
        dim = self._dim or 1
        new_d = np.zeros((new_cap, dim), dtype=np.complex128)
        new_y = np.zeros(new_cap, dtype=np.complex128)
        new_a = np.zeros(new_cap, dtype=np.complex128)
        new_q = np.zeros((new_cap, new_cap), dtype=self._dtype)
        new_w = np.zeros((new_cap, new_cap), dtype=self._dtype)
        m = self._m
        if m:
            new_d[:m] = self._D[:m]
            new_y[:m] = self._y[:m]
            new_a[:m] = self._alpha[:m]
            new_q[:m, :m] = self._Q[:m, :m]
        self._D, self._y, self._alpha, self._Q = new_d, new_y, new_a, new_q
        self._work = new_w
        self._cap = new_cap

    def _kxx(self, x: np.ndarray) -> float:
        return float(np.real(self.spec.diag(x[None, :])[0][0]))

    def _admit(self, x: np.ndarray, y: complex) -> complex:
        m = self._m
        self._ensure_capacity(m + 1)
        c = self._kxx(x) + self.lam
        if m == 0:
            self._D[0] = x
            self._y[0] = y
            self._Q[0, 0] = 1.0 / c
            self._alpha[0] = y / c
            self._m = 1
            return 0.0 + 0.0j
        col = self.spec.gram(self._D[:m], x[None, :])[:, 0]
        pred = complex(np.conj(col) @ self._alpha[:m])
        b = self._Q[:m, :m] @ col
        gamma = c - float(np.real(np.conj(col) @ b))
        if gamma <= 1e-12 * c:
            # numerically singular rank-1 update: fall back to a full rebuild
            self._D[m] = x
            self._y[m] = y
            self._m = m + 1
            self._rebuild()
            return pred
        err = y - pred
        q = self._Q
        b_over = np.conj(b) / gamma
        np.outer(b, b_over, out=self._work[:m, :m])
        q[:m, :m] += self._work[:m, :m]
        q[:m, m] = -np.conj(b_over)
        q[m, :m] = -b_over
        q[m, m] = 1.0 / gamma
        self._alpha[:m] -= b * (err / gamma)
        self._alpha[m] = err / gamma
        self._D[m] = x
        self._y[m] = y
        self._m = m + 1
        return pred

    def _scores(self) -> np.ndarray:
        m = self._m
        diag = np.real(np.diagonal(self._Q)[:m])
        return np.abs(self._alpha[:m]) ** 2 / diag

    def _prune(self, r: int) -> None:
        m = self._m
        q = self._Q
        qrr = q[r, r].real
        qs = np.concatenate([q[:r, r], q[r + 1 : m, r]])
        alpha_r = self._alpha[r]
        # compact row/column r away (numpy buffers overlapping copies)
        if r < m - 1:
            q[r : m - 1, :m] = q[r + 1 : m, :m]
            q[:m, r : m - 1] = q[:m, r + 1 : m]
            self._D[r : m - 1] = self._D[r + 1 : m]
            self._y[r : m - 1] = self._y[r + 1 : m]
            self._alpha[r : m - 1] = self._alpha[r + 1 : m]
        # rank-1 downdate of the remaining block
        np.outer(qs, np.conj(qs) / qrr, out=self._work[: m - 1, : m - 1])
        q[: m - 1, : m - 1] -= self._work[: m - 1, : m - 1]
        self._alpha[: m - 1] -= qs * (alpha_r / qrr)
        self._m = m - 1

    def _regularized_gram(self) -> np.ndarray:
        m = self._m
        k = self.spec.gram(self._D[:m])
        k = (k + k.conj().T) / 2.0
        return k + self.lam * np.eye(m)

    def _rebuild(self) -> None:
        m = self._m
        a = self._regularized_gram()
        self._Q[:m, :m] = hermitian_solve(a, np.eye(m, dtype=self._dtype))
        self._alpha[:m] = self._Q[:m, :m] @ self._y[:m]


def streaming_ridge_predictions(
    spec: KernelSpec, x, y, lam: float
) -> np.ndarray:
    """One-step-ahead predictions of unbounded recursive ridge on a stream.

    Entry i is the prediction of ``y[i]`` from the ridge fit of samples
    ``0..i-1`` (0 for the first sample), i.e. exactly what an unbudgeted
    :class:`Wrkls` emits from successive ``observe`` calls, computed with a
    single Cholesky factorization: with ``L L^H = K + lam I`` and
    ``z = L^-1 y``, the prediction sequence is ``y - diag(L) * z``.
    """
    lam = float(lam)
    if not lam > 0:
        raise ValueError(f"lam must be strictly positive, got {lam}")
    if not spec.has_null_pseudo:
        raise ValueError("streaming ridge requires a null pseudo-kernel")
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(y, dtype=np.complex128).ravel()
    if x.shape[0] != y.shape[0]:
        raise ValueError("x and y must have the same number of samples")
    k = spec.gram(x)
    k = (k + k.conj().T) / 2.0
    a = k + lam * np.eye(len(y))
    try:
        low = scipy.linalg.cholesky(a, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError("streaming ridge factorization failed") from exc
    if np.iscomplexobj(low):
        z = scipy.linalg.solve_triangular(low, y, lower=True, check_finite=False)
        diag = np.real(np.diagonal(low))
    else:
        zr = scipy.linalg.solve_triangular(
            low, np.column_stack([y.real, y.imag]), lower=True, check_finite=False
        )
        z = zr[:, 0] + 1j * zr[:, 1]
        diag = np.diagonal(low)
    return y - diag * z
