"""Budgeted recursive kernel least squares for null-pseudo-kernel models.

:class:`Wrkls` admits every observed sample into its dictionary through a
rank-1 update of the maintained inverse ``Q = (K_DD + lam I)^-1`` and, when a
basis budget M is set, evicts the basis with the smallest pruning score
``|alpha_i|^2 / Q_ii`` (fixed-budget KRLS). The score is the increase of the
regularized least-squares objective caused by removing basis i (the
``(K + lam I)``-norm of the coefficient perturbation), so eviction removes
the least informative basis. Without a budget the recursion reproduces the
batch ridge solution on all samples seen so far.

Storage: ``Q`` is kept in the lower triangle of one F-contiguous buffer
(``budget + 1`` square when budgeted), zero outside the live m x m block;
no update reads the strict upper triangle. Each BLAS update takes the whole
buffer with ``lower=1`` and zero-padded vectors, so scipy's wrappers update
it in place. ``b = Q k`` is one ``?symv``/``?hemv``; an admit into a free
slot is one ``?syr``/``?her`` with ``u = [b; -1]``. At the budget the
post-admit scores follow in O(m) from ``diag(Q)``, ``b`` and ``alpha``; a
newcomer with the smallest score ``|err|^2 / gamma`` is skipped, since
admitting and evicting it is the identity. Otherwise it takes the evicted
basis's slot r: row and column r are zeroed, and
``Q += u u^H / gamma - w w^H / w_rr`` is one ``?syr2``/``?her2``, with
``u = b`` but ``u_r = -1`` and ``w`` column r of the admitted inverse, the
newcomer's entry in place r.

Each slot also keeps its squared norm ``|D_i|^2``, and a second buffer
slotted like ``Q`` keeps the regularized Gram ``K_DD + lam I``, exactly
Hermitian. An admit evaluates one kernel column ``k(D, x)`` with the cached
norms and writes it as the newcomer's column and row. The periodic residual
check and a rebuild read this Gram. The check first mirrors the lower
triangle of ``Q`` into the upper one, then takes one m x m product.

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
    ``stats`` counts admits, the replacements among them, skipped newcomers
    and rebuilds by cause, and keeps the latest and the worst residual of the
    periodic check.
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
        # in-place Hermitian BLAS on the lower triangle of an F-contiguous Q
        kinds = ("dsymv", "dsyr", "dsyr2") if spec.is_real_valued else ("zhemv", "zher", "zher2")
        self._hemv, self._her, self._her2 = (getattr(blas, kind) for kind in kinds)
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
        self.stats = {"admits": 0, "replacements": 0, "skipped": 0, "residual_max": 0.0,
                      "residual_last": 0.0, "rebuilds": {"singular": 0, "residual": 0}}

    # -- public state -------------------------------------------------------

    @property
    def size(self) -> int:
        """Current dictionary size."""
        return self._m

    @property
    def dictionary(self) -> np.ndarray:
        """Copy of the dictionary inputs, shape (size, d).

        Rows are in slot order: a newcomer takes the slot of the basis it
        evicts, so this is not arrival order.
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
            stats = self.stats
            stats["residual_last"] = residual = self.inverse_residual()
            stats["residual_max"] = max(stats["residual_max"], residual)
            if residual > RESIDUAL_TOL:
                stats["rebuilds"]["residual"] += 1
                self._rebuild()
        return pred

    def inverse_residual(self) -> float:
        """``max |Q (K_DD + lam I) - I|`` over the current dictionary, from the
        kept Gram: one m x m product, no kernel evaluation."""
        m = self._m
        if m == 0:
            return 0.0
        # mirror into the upper triangle for numpy's GEMM (scipy's ?symm would touch
        # a second BLAS work buffer)
        q = self._Q[:m, :m]
        for j in range(1, m):
            q[:j, j] = q[j, :j].conj()
        r = q @ self._A[:m, :m]
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
        alpha = self._alpha[:m]
        pred = complex(np.vdot(col, alpha))
        q = self._Q
        k = np.zeros(self._cap, dtype=self._dtype)
        k[:m] = col
        b = self._hemv(1.0, q, k, lower=1)  # zero beyond m, like the rows of Q
        gamma = c - float(np.vdot(col, b[:m]).real)
        full = self.budget is not None and m == self.budget
        stats = self.stats
        if gamma <= 1e-12 * c:
            # singular rank-1 update: rebuild, and at the budget again without the min score
            stats["rebuilds"]["singular"] += 1
            self._place(m, col, c)
            self._m = m + 1
            self._rebuild()
            if full:
                q_diag = np.real(np.diagonal(q)[: m + 1])
                r = int(np.argmin(np.abs(self._alpha[: m + 1]) ** 2 / q_diag))
                self._place(r, col, c)
                q[m, :] = q[:, m] = 0.0
                self._m = m
                self._rebuild()
                if r == m:
                    stats["skipped"] += 1
                    return pred
                stats["replacements"] += 1
            stats["admits"] += 1
            return pred
        err = y - pred
        new_alpha = alpha - b[:m] * (err / gamma)
        r = m  # the newcomer's slot
        if not full:
            b[m] = -1.0
            self._her(1.0 / gamma, b, lower=1, a=q, overwrite_a=True)
            self._alpha[: m + 1] = np.append(new_alpha, err / gamma)
            self._m = m + 1
        else:
            # post-admit scores; the newcomer's is |err|^2 / gamma, and a tie evicts r
            q_diag = np.real(np.diagonal(q)[:m]) + np.abs(b[:m]) ** 2 / gamma
            scores = np.abs(new_alpha) ** 2 / q_diag
            r = int(np.argmin(scores))
            if abs(err) ** 2 / gamma < scores[r]:  # admitting and evicting it: identity
                stats["skipped"] += 1
                return pred
            # w: column r of the admitted inverse, from row and column r of the triangle
            w = np.concatenate((q[r, :r].conj(), q[r:, r]))
            w += b * (np.conj(b[r]) / gamma)
            w[r] = -np.conj(b[r]) / gamma
            w /= np.sqrt(q_diag[r])
            b[r] = -1.0
            b /= np.sqrt(gamma)
            # Q += b b^H - w w^H on the zeroed slot: (b + w)(b - w)^H / 2 + adjoint
            q[r, :] = q[:, r] = 0.0
            self._her2(0.5, b + w, b - w, lower=1, a=q, overwrite_a=True)
            evicted, new_alpha[r] = new_alpha[r], err / gamma
            alpha[:] = new_alpha - w[:m] * (evicted / np.sqrt(q_diag[r]))
            stats["replacements"] += 1
        self._place(r, col, c)
        stats["admits"] += 1
        return pred

    def _place(self, s: int, col: np.ndarray, c: float) -> None:
        """Move the newcomer from spare slot ``len(col)`` into slot ``s``."""
        a, m = self._A, col.shape[0]
        for v in (self._D, self._norms, self._y):
            v[s] = v[m]
        a[:m, s] = col
        a[s, :m] = col.conj()
        a[s, s] = c

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
