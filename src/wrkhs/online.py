"""Budgeted recursive kernel least squares for null-pseudo-kernel models.

:class:`Wrkls` admits every observed sample into its dictionary through a
rank-1 update of the maintained inverse ``Q = (K_DD + lam I)^-1`` and, when a
basis budget M is set, evicts the basis with the smallest pruning score
``|alpha_i|^2 / Q_ii`` (fixed-budget KRLS). The score is the increase of the
regularized least-squares objective caused by removing basis i (the
``(K + lam I)``-norm of the coefficient perturbation), so eviction removes
the least informative basis. Without a budget the recursion reproduces the
batch ridge solution on all samples seen so far.

Storage: ``Q`` is kept in the lower triangle of one dense F-contiguous
buffer (``budget + 1`` square when budgeted; level-2 BLAS has no RFP
form), zero outside the live m x m block; no update reads the strict upper
triangle. Each BLAS update takes the whole buffer with ``lower=1`` and
zero-padded vectors, so scipy's wrappers update it in place. ``b = Q k`` is
one ``?symv``/``?hemv``; an admit into a free slot is one ``?syr``/``?her``
with ``u = [b; -1]``. At the budget the post-admit scores follow in O(m)
from ``diag(Q)``, ``b`` and ``alpha``; a newcomer with the smallest score
``|err|^2 / gamma`` is skipped, since admitting and evicting it is the
identity. Otherwise it takes the evicted basis's slot r: row and column r
are zeroed, and ``Q += u u^H / gamma - w w^H / w_rr`` is one
``?syr2``/``?her2``, with ``u = b`` but ``u_r = -1`` and ``w`` column r of
the admitted inverse, the newcomer's entry in place r.

Each slot also keeps its squared norm ``|D_i|^2``, and a second buffer
slotted like ``Q`` keeps the regularized Gram ``K_DD + lam I``, exactly
Hermitian. An admit writes the newcomer's kernel column ``k(D, x)`` as its
column and row there. The periodic residual check and a rebuild read this
Gram. The check first mirrors the lower triangle of ``Q`` into the upper
one (``core.mirror_lower``), then takes one m x m product.

One update loop serves both entries. ``observe_many`` takes a stream of
samples, checked once (``core.ComplexDataset``) with their norms taken in one
``sq_norms`` call, and returns the one-step predictions. The loop works in
blocks of ``BLOCK_ROWS`` samples: one kernel evaluation on the stacked rows
``[D; block]`` gives every column ``k(D, x_t)`` against the dictionary at the
block's start and the block's own cross Gram ``k(x_u, x_t)``. The columns
wait zero-padded to the capacity, so each goes straight to ``?symv``/
``?hemv``; when sample u takes slot s, row s of the later columns becomes
row u of the cross Gram. ``observe`` is the one-row case, with one sample
taken by ``core.as_sample``: a 0-d, (d,) or (1, d) input; any other shape
raises ``ValueError``. A block's kernel values can differ in the last bit
from one-sample ones, so ``observe_many`` is within rounding of, not
bit-identical to, a loop of ``observe``.

:func:`streaming_ridge_predictions` computes the same unbounded prediction
sequence in one Cholesky factorization (prequential form), used by the
benchmark runners where streams are long. It factors the Gram's packed
triangle in its own buffer by ``core.ridge_factor``, with the batch solve's
one jitter retry (``1e-12 * trace/n`` on the diagonal of the Gram built
afresh) before ``NumericalError``, and solves by ``L`` (``core.packed_forward``).
"""

from __future__ import annotations

import cmath

import numpy as np
from scipy.linalg import blas

from .core import (
    ComplexDataset, as_sample, check_lam, hermitian_solve, is_int, mirror_lower, packed_diagonal,
    packed_forward, ridge_factor,
)
from .kernels import KernelSpec, sq_norms

__all__ = ["Wrkls", "streaming_ridge_predictions"]

# Observe calls between self-checks of the maintained inverse.
RESIDUAL_CHECK_INTERVAL = 128

# Max tolerated |Q (K + lam I) - I| before a full rebuild is forced.
RESIDUAL_TOL = 1e-6

# Samples per kernel evaluation of the update loop: a block's columns against
# the dictionary and its own cross Gram come from one GEMM. At budget 500 a
# block's buffers take about 0.5 MB; 128 rows ran no faster and raised the
# equalization benchmark's peak memory by 1.1 MB.
BLOCK_ROWS = 64


def _recursion_lam(spec: KernelSpec, lam) -> float:
    """The precondition of the recursion in either form: ``spec`` has a null
    pseudo-kernel and ``lam`` is finite and > 0. Returns ``lam`` as a float."""
    if not spec.has_null_pseudo:
        raise ValueError("online recursion requires a null pseudo-kernel; "
                         f"family {spec.family!r} has a pseudo-kernel")
    lam = check_lam(lam)
    if lam == 0:
        raise ValueError("lam must be strictly positive")
    return lam


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
        lam = _recursion_lam(spec, lam)
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
        unchanged, as does an ``x`` that is not one sample (``core.as_sample``).
        This is the one-row case of :meth:`observe_many`'s loop.
        """
        x = as_sample(x, "observe: x")
        y = complex(y)
        if not cmath.isfinite(y):
            raise ValueError("observe: y is non-finite")
        self._fix_dim(x.shape[1])
        return complex(self._stream(x, sq_norms(x), (y,))[0])

    def observe_many(self, X, y) -> np.ndarray:
        """One-step predictions of a stream: entry i is the prediction of
        ``y[i]`` before (X[i], y[i]) is admitted, as from successive
        :meth:`observe` calls.

        ``X`` and ``y`` are checked once, as a :class:`~wrkhs.core.ComplexDataset`
        (``n >= 1`` rows, y 1-D of length n, every entry finite); a fault raises
        ``ValueError`` and leaves the model unchanged. The kernel columns of
        each block of ``BLOCK_ROWS`` samples come from one kernel evaluation,
        so they may round differently from one-sample columns in the last bit.
        """
        data = ComplexDataset(X=X, y=y)
        self._fix_dim(data.d)
        return self._stream(data.X, sq_norms(data.X), data.y.tolist())

    def inverse_residual(self) -> float:
        """``max |Q (K_DD + lam I) - I|`` over the current dictionary, from the
        kept Gram: one m x m product, no kernel evaluation."""
        m = self._m
        if m == 0:
            return 0.0
        # mirror into the upper triangle for numpy's GEMM (scipy's ?symm would touch
        # a second BLAS work buffer)
        r = mirror_lower(self._Q[:m, :m]) @ self._A[:m, :m]
        r[np.diag_indices(m)] -= 1.0
        # |r| in place; a complex r keeps a zero imaginary part
        return float(np.max(np.abs(r, out=r)).real)

    # -- internals ----------------------------------------------------------

    def _fix_dim(self, dim: int) -> None:
        if self._dim is None:
            self._dim = dim
        elif dim != self._dim:
            raise ValueError(f"expected dimension {self._dim}, got {dim}")

    def _ensure_capacity(self, need: int) -> None:
        """Room for ``need`` slots; a budgeted model has ``budget + 1`` (the spare
        slot of an admit at the budget) whatever ``need`` is."""
        if self.budget is not None:
            need = self.budget + 1
        if need <= self._cap:
            return
        new_cap = need if self.budget is not None else max(16, 2 * self._cap, need)
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

    def _stream(self, x: np.ndarray, norms: np.ndarray, y) -> np.ndarray:
        """Predict and admit checked rows ``x`` in order, with their squared
        norms ``norms`` and targets ``y`` (Python complex numbers, so that each
        sample's arithmetic is that of :meth:`observe`), running the periodic
        residual check; returns the predictions. The kernel columns come a
        block at a time, as the module docstring describes."""
        preds = np.empty(len(y), dtype=np.complex128)
        for start in range(0, len(y), BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, len(y))
            m = self._m
            self._ensure_capacity(m + stop - start)
            rows = np.concatenate((self._D[:m], x[start:stop]))
            row_norms = np.concatenate((self._norms[:m], norms[start:stop]))
            gram = self.spec._gram(rows, rows[m:], row_norms, row_norms[m:])
            cols = np.zeros((self._cap, stop - start), dtype=self._dtype, order="F")
            cols[:m] = gram[:m]
            cross = gram[m:]
            shifted = (cross.diagonal().real + self.lam).tolist()  # k(x, x) + lam
            for t, i in enumerate(range(start, stop)):
                # the newcomer waits in the spare slot m until it is placed
                m = self._m
                self._D[m], self._norms[m], self._y[m] = x[i], norms[i], y[i]
                preds[i], s = self._step(cols[:, t], shifted[t], y[i])
                if s is not None:
                    cols[s, t + 1 :] = cross[t, t + 1 :]
                self._observed += 1
                if self._observed % RESIDUAL_CHECK_INTERVAL == 0:
                    stats = self.stats
                    stats["residual_last"] = residual = self.inverse_residual()
                    stats["residual_max"] = max(stats["residual_max"], residual)
                    if residual > RESIDUAL_TOL:
                        stats["rebuilds"]["residual"] += 1
                        self._rebuild()
        return preds

    def _step(self, k: np.ndarray, c: float, y: complex) -> tuple[complex, int | None]:
        """Predict ``y`` and admit the newcomer in spare slot m, given its
        kernel column ``k`` against the dictionary (zero-padded to the capacity)
        and ``c = k(x, x) + lam``. Returns the prediction and the slot the newcomer
        took, None when it was skipped."""
        m = self._m
        col = k[:m]
        alpha = self._alpha[:m]
        # with m = 0 this gives pred = 0, gamma = c, Q = [1/c] and alpha = [y/c]
        pred = complex(np.vdot(col, alpha))
        q = self._Q
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
            r = m
            if full:
                q_diag = q.diagonal()[: m + 1].real
                r = int((np.abs(self._alpha[: m + 1]) ** 2 / q_diag).argmin())
                self._place(r, col, c)
                q[m, :] = q[:, m] = 0.0
                self._m = m
                self._rebuild()
                if r == m:
                    stats["skipped"] += 1
                    return pred, None
                stats["replacements"] += 1
            stats["admits"] += 1
            return pred, r
        err = y - pred
        new_alpha = alpha - b[:m] * (err / gamma)
        r = m  # the newcomer's slot
        if not full:
            b[m] = -1.0
            self._her(1.0 / gamma, b, lower=1, a=q, overwrite_a=True)
            alpha[:] = new_alpha
            self._alpha[m] = err / gamma
            self._m = m + 1
        else:
            # post-admit scores; the newcomer's is |err|^2 / gamma, and a tie evicts r
            q_diag = q.diagonal()[:m].real + np.abs(b[:m]) ** 2 / gamma
            scores = np.abs(new_alpha) ** 2 / q_diag
            r = int(scores.argmin())
            if abs(err) ** 2 / gamma < scores[r]:  # admitting and evicting it: identity
                stats["skipped"] += 1
                return pred, None
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
        return pred, r

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
    lam = _recursion_lam(spec, lam)
    data = ComplexDataset(X=x, y=y)
    x, y = data.X, data.y
    low = ridge_factor(spec._gram(x, x), lam, lambda: spec._gram(x, x))
    return y - low[packed_diagonal(len(y))].real * packed_forward(low, y)
