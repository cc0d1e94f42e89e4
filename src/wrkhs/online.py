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

Storage: ``Q`` lives in the top-left m x m block of one F-contiguous
buffer (``budget + 1`` square when budgeted) whose other entries are zero.
Admitting a basis is then one rank-1 update ``Q += u u^H / gamma`` with
``u = [Q k; -1]``, and evicting one is one rank-1 downdate; both are a
single in-place BLAS ``?ger`` call on the buffer's leading columns with a
zero-padded vector (a column slice of an F-contiguous buffer is itself
contiguous, which scipy's BLAS wrappers update in place; they would copy a
strided sub-block). Eviction first swaps the chosen basis into the last
slot, at O(m) cost, so :attr:`Wrkls.dictionary` is not in arrival order
once a basis has been evicted. The post-admit scores follow in O(m) from
``diag(Q)``, ``Q k`` and ``alpha``; when the newcomer's own score
``|err|^2 / gamma`` is the smallest, admitting and then evicting it would
be the identity, so both updates are skipped.

Alongside the dictionary, each slot keeps its squared norm ``|D_i|^2``, and
a second buffer shaped and ordered like ``Q`` keeps the regularized
dictionary Gram ``K_DD + lam I``, exactly Hermitian. An admit evaluates one
kernel column ``k(D, x)`` through the family's own evaluator with the
cached norms, on rows ``observe`` has already checked, and writes it as
column m and its conjugate as row m; an eviction swaps slots in the norms
and the Gram as in ``D`` and ``Q``. Only the live m x m block is read. The
periodic residual check and a rebuild read this Gram, so neither evaluates
a kernel.

:func:`streaming_ridge_predictions` computes the same unbounded prediction
sequence in one Cholesky factorization (prequential form), used by the
benchmark runners where streams are long.
"""

from __future__ import annotations

import cmath

import numpy as np
import scipy.linalg
from scipy.linalg import blas

from .core import (
    ComplexDataset, NumericalError, check_lam, hermitian_solve, is_int, ridge_shift, stacked_apply,
)
from .kernels import KernelSpec

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
        Maximum dictionary size M, an integer ``>= 1`` (a float or a bool is
        rejected); ``None`` keeps every sample.

    A model instance is owned by a single updater. Its dictionary and
    coefficients define the kernel expansion over the current bases.
    """

    def __init__(self, spec: KernelSpec, lam: float, budget: int | None = None):
        if not spec.has_null_pseudo:
            raise ValueError(
                "online recursion requires a null pseudo-kernel; "
                f"family {spec.family!r} has a pseudo-kernel"
            )
        lam = check_lam(lam)
        if lam == 0:
            raise ValueError("lam must be strictly positive")
        if budget is not None and not (is_int(budget) and budget >= 1):
            raise ValueError(f"budget must be an integer >= 1, got {budget!r}")
        self.spec = spec
        self.lam = lam
        self.budget = budget
        self._dtype = np.float64 if spec.is_real_valued else np.complex128
        # in-place rank-1 update a += s x y^H of an F-contiguous matrix
        self._ger = blas.dger if spec.is_real_valued else blas.zgerc
        self._m = 0
        self._dim: int | None = None
        self._observed = 0
        self._cap = 0
        self._D = np.zeros((0, 0), dtype=np.complex128)
        self._norms = np.zeros(0)
        self._y = np.zeros(0, dtype=np.complex128)
        self._alpha = np.zeros(0, dtype=np.complex128)
        self._Q = np.zeros((0, 0), dtype=self._dtype, order="F")
        # the regularized dictionary Gram K_DD + lam I, slot for slot like Q
        self._A = np.zeros((0, 0), dtype=self._dtype, order="F")

    # -- public state -------------------------------------------------------

    @property
    def size(self) -> int:
        """Current dictionary size."""
        return self._m

    @property
    def dictionary(self) -> np.ndarray:
        """Copy of the dictionary inputs, shape (size, d).

        Rows are in slot order: an evicted basis's slot is taken by the
        basis in the last slot, so this is not arrival order.
        """
        return self._D[: self._m].copy()

    @property
    def coefficients(self) -> np.ndarray:
        """Copy of the coefficient vector, one entry per basis."""
        return self._alpha[: self._m].copy()

    @property
    def targets(self) -> np.ndarray:
        """Copy of the retained per-basis targets."""
        return self._y[: self._m].copy()

    # -- update -------------------------------------------------------------

    def observe(self, x, y) -> complex:
        """Predict ``y`` from pre-update state, then admit (x, y).

        Returns the prediction made *before* the update. When the dictionary
        exceeds the budget, the minimal-score basis is evicted. A sample with
        a NaN or infinite entry raises ``ValueError`` and leaves the model
        unchanged.
        """
        x = np.asarray(x, dtype=np.complex128).ravel()
        y = complex(y)
        if not (cmath.isfinite(y) and np.isfinite(x).all()):
            raise ValueError("observe: sample contains non-finite values")
        if self._dim is None:
            self._dim = x.shape[0]
        elif x.shape[0] != self._dim:
            raise ValueError(f"expected dimension {self._dim}, got {x.shape[0]}")
        pred = self._admit(x, y)
        self._observed += 1
        if self._observed % RESIDUAL_CHECK_INTERVAL == 0:
            if self.inverse_residual() > RESIDUAL_TOL:
                self._rebuild()
        return pred

    def inverse_residual(self) -> float:
        """``max |Q (K_DD + lam I) - I|`` over the current dictionary, from the
        kept Gram: one m x m product, no kernel evaluation."""
        m = self._m
        if m == 0:
            return 0.0
        r = self._Q[:m, :m] @ self._A[:m, :m]
        r[np.diag_indices(m)] -= 1.0
        # |r| in place; a complex r keeps a zero imaginary part
        return float(np.max(np.abs(r, out=r)).real)

    # -- internals ----------------------------------------------------------

    def _ensure_capacity(self, need: int) -> None:
        if need <= self._cap:
            return
        if self.budget is not None:
            new_cap = self.budget + 1
        else:
            new_cap = max(16, 2 * self._cap, need)
        dim = self._dim or 1
        new_d = np.zeros((new_cap, dim), dtype=np.complex128)
        new_n = np.zeros(new_cap)
        new_y = np.zeros(new_cap, dtype=np.complex128)
        new_a = np.zeros(new_cap, dtype=np.complex128)
        new_q = np.zeros((new_cap, new_cap), dtype=self._dtype, order="F")
        new_k = np.zeros((new_cap, new_cap), dtype=self._dtype, order="F")
        m = self._m
        if m:
            new_d[:m] = self._D[:m]
            new_n[:m] = self._norms[:m]
            new_y[:m] = self._y[:m]
            new_a[:m] = self._alpha[:m]
            new_q[:m, :m] = self._Q[:m, :m]
            new_k[:m, :m] = self._A[:m, :m]
        self._D, self._norms, self._y, self._alpha = new_d, new_n, new_y, new_a
        self._Q, self._A = new_q, new_k
        self._cap = new_cap

    def _admit(self, x: np.ndarray, y: complex) -> complex:
        m = self._m
        self._ensure_capacity(m + 1)
        self._D[m] = x
        self._y[m] = y
        row = self._D[m].view(np.float64)
        self._norms[m] = row @ row
        # k(D, x) and k(x, x) from one kernel evaluation of the checked rows
        d, norms = self._D[: m + 1], self._norms[: m + 1]
        col = self.spec._gram(d, d[m:], norms, norms[m:])[:, 0]
        c = float(col[m].real) + self.lam
        # with m = 0 this gives pred = 0, gamma = c, Q = [1/c] and alpha = [y/c]
        col = col[:m]
        self._A[:m, m] = col
        self._A[m, :m] = col.conj()
        self._A[m, m] = c
        alpha = self._alpha[:m]
        pred = complex(np.conj(col) @ alpha)
        b = self._Q[:m, :m] @ col
        gamma = c - float(np.real(np.conj(col) @ b))
        full = self.budget is not None and m == self.budget
        if gamma <= 1e-12 * c:
            # numerically singular rank-1 update: fall back to a full rebuild
            self._m = m + 1
            self._rebuild()
            if full:
                q_diag = np.real(np.diagonal(self._Q)[: m + 1])
                self._evict(int(np.argmin(np.abs(self._alpha[: m + 1]) ** 2 / q_diag)))
            return pred
        err = y - pred
        new_alpha = alpha - b * (err / gamma)
        if full:
            # scores of the m + 1 bases after the admit, newcomer last
            q_diag = np.real(np.diagonal(self._Q)[:m]) + np.abs(b) ** 2 / gamma
            scores = np.append(np.abs(new_alpha) ** 2 / q_diag, abs(err) ** 2 / gamma)
            r = int(np.argmin(scores))
            if r == m:  # admitting and then evicting the newcomer is the identity
                return pred
        u = np.zeros(self._cap, dtype=self._dtype)
        u[:m] = b
        u[m] = -1.0
        self._ger(1.0 / gamma, u, u[: m + 1], a=self._Q[:, : m + 1], overwrite_a=True)
        alpha[:] = new_alpha
        self._alpha[m] = err / gamma
        self._m = m + 1
        if full:
            self._evict(r)
        return pred

    def _evict(self, r: int) -> None:
        last = self._m - 1
        q = self._Q
        if r != last:
            swap = [last, r]
            for a in (self._D, self._norms, self._y, self._alpha):
                a[[r, last]] = a[swap]
            for a in (q, self._A):
                a[[r, last], :] = a[swap, :]
                a[:, [r, last]] = a[:, swap]
        # Q <- Q - v v^H / q_ll over the other bases, with v the last column
        v = q[:, last].copy()
        q_ll = v[last].real
        v[last] = 0.0
        q[last, :] = 0.0
        q[:, last] = 0.0
        self._ger(-1.0 / q_ll, v, v[:last], a=q[:, :last], overwrite_a=True)
        self._alpha[:last] -= v[:last] * (self._alpha[last] / q_ll)
        self._m = last

    def _rebuild(self) -> None:
        m = self._m
        self._Q[:m, :m] = hermitian_solve(self._A[:m, :m], np.eye(m, dtype=self._dtype))
        self._alpha[:m] = self._Q[:m, :m] @ self._y[:m]


def streaming_ridge_predictions(
    spec: KernelSpec, x, y, lam: float
) -> np.ndarray:
    """One-step-ahead predictions of unbounded recursive ridge on a stream.

    Entry i is the prediction of ``y[i]`` from the ridge fit of samples
    ``0..i-1`` (0 for the first sample), i.e. exactly what an unbudgeted
    :class:`Wrkls` emits from successive ``observe`` calls, computed with a
    single Cholesky factorization: with ``L L^H = K + lam I`` and
    ``z = L^-1 y``, the prediction sequence is ``y - diag(L) * z``. ``x`` and
    ``y`` are checked as a :class:`~wrkhs.core.ComplexDataset`.
    """
    lam = check_lam(lam)
    if lam == 0:
        raise ValueError("lam must be strictly positive")
    if not spec.has_null_pseudo:
        raise ValueError("streaming ridge requires a null pseudo-kernel")
    data = ComplexDataset(X=x, y=y)
    y = data.y
    a = ridge_shift(spec.gram(data.X), lam)
    try:
        low = scipy.linalg.cholesky(a, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError("streaming ridge factorization failed") from exc
    z = stacked_apply(
        lambda a, b: scipy.linalg.solve_triangular(a, b, lower=True, check_finite=False),
        low,
        y,
    )
    return y - np.real(np.diagonal(low)) * z
