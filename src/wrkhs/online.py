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

A second buffer slotted like ``Q`` keeps the regularized Gram
``K_DD + lam I``, exactly Hermitian. An admit writes the newcomer's kernel
column ``k(D, x)`` as its column and row there. The periodic self-check and
a rebuild read this Gram. The check is Freivalds' randomized check: with a
fixed block V of ``PROBE_COLUMNS`` real +-1 columns it reports
``max |Q (A V) - V|``, one m x k product with the Gram ``A`` and k
``?symv``/``?hemv`` on the lower triangle of ``Q``, so O(k m^2) and no m x m
temporary. A one-entry drift of ``Q (K_DD + lam I) - I`` shows in it at its
full size, and up to rounding the probe residual is at most m times the
exact one, which :meth:`Wrkls.inverse_residual` computes with a mirror of
``Q`` and one m x m product. The probe block's rows come from one fixed-seed
generator, so a growing model's blocks agree on their common rows.

One update loop serves both entries. ``observe_many`` takes a stream of
samples, checked once (``core.ComplexDataset``), and returns the one-step
predictions. The loop works in blocks of ``BLOCK_ROWS`` samples: one kernel
evaluation on the stacked rows ``[D; block]`` gives every column
``k(D, x_t)`` against the dictionary at the block's start and the block's
own cross Gram ``k(x_u, x_t)``. The columns wait zero-padded to the
capacity, so each goes straight to ``?symv``/``?hemv``; when sample u takes
slot s, row s of the later columns becomes row u of the cross Gram.
The loop runs its level-2 updates at one BLAS thread
(``core.limit_blas_threads``), so a stream does not spread an O(m^2) update
over every core; the counts are given back on return.
``observe`` is the one-row case, with one sample taken by
``core.as_sample``: a 0-d, (d,) or (1, d) input; any other shape raises
``ValueError``. A block's kernel values can differ in the last bit
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
import logging

import numpy as np
from scipy.linalg import blas

from .core import (
    ComplexDataset, as_sample, check_lam, hermitian_solve, is_int, limit_blas_threads,
    mirror_lower, packed_diagonal, packed_forward, ridge_factor,
)
from .kernels import KernelSpec

__all__ = ["Wrkls", "streaming_ridge_predictions"]

# Observe calls between self-checks of the maintained inverse.
RESIDUAL_CHECK_INTERVAL = 128

# Max tolerated probe residual |Q (K + lam I) V - V| before a full rebuild is forced.
RESIDUAL_TOL = 1e-6

# Columns of the self-check's probe block V, and the seed of its generator.
PROBE_COLUMNS = 4
PROBE_SEED = 1977

_log = logging.getLogger(__name__)

# Samples per kernel evaluation of the update loop: a block's columns against
# the dictionary and its own cross Gram come from one GEMM. At budget 500 a
# block's buffers take about 0.5 MB; 128 rows ran no faster and raised the
# equalization benchmark's peak memory by 1.1 MB.
BLOCK_ROWS = 64


def _check_finite(alpha: np.ndarray, *more: complex) -> None:
    """Raise ``FloatingPointError`` unless the new coefficients ``alpha`` and
    ``more`` are finite; the update loop names the target that overflowed.
    A finite squared norm, one dot product, clears ``alpha``; only when it is
    not, as when huge finite entries overflow it, is each entry tested."""
    finite = cmath.isfinite(np.vdot(alpha, alpha)) or np.isfinite(alpha).all()
    if not (finite and all(map(cmath.isfinite, more))):
        raise FloatingPointError


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
    periodic check. Those are probe residuals ``max |Q (A V) - V|`` (see the
    module docstring), not the exact :meth:`inverse_residual`. Each counted
    rebuild also logs one ``WARNING`` on the ``wrkhs.online`` logger, naming
    its cause and the dictionary size, and for a residual rebuild the probe
    residual.
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
        self._y = np.zeros(0, dtype=np.complex128)
        self._alpha = np.zeros(0, dtype=np.complex128)
        self._Q = np.zeros((0, 0), dtype=self._dtype, order="F")
        # the regularized dictionary Gram K_DD + lam I, slot for slot like Q
        self._A = np.zeros((0, 0), dtype=self._dtype, order="F")
        # the self-check's probe block, one row per slot
        self._V = np.zeros((0, PROBE_COLUMNS))
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
        unchanged, as does an ``x`` that is not one sample (``core.as_sample``)
        and a ``y`` whose update would make a coefficient NaN or infinite.
        This is the one-row case of :meth:`observe_many`'s loop.
        """
        x = as_sample(x, "observe: x")
        y = complex(y)
        if not cmath.isfinite(y):
            raise ValueError("observe: y is non-finite")
        self._fix_dim(x.shape[1])
        return complex(self._stream(x, (y,), "observe: y")[0])

    def observe_many(self, X, y) -> np.ndarray:
        """One-step predictions of a stream: entry i is the prediction of
        ``y[i]`` before (X[i], y[i]) is admitted, as from successive
        :meth:`observe` calls.

        ``X`` and ``y`` are checked once, as a :class:`~wrkhs.core.ComplexDataset`
        (``n >= 1`` rows, y 1-D of length n, every entry finite); a fault raises
        ``ValueError`` and leaves the model unchanged. So does a ``y[i]`` whose
        update would make a coefficient NaN or infinite, named with its index,
        for the model after ``y[i - 1]``, and a ridge weight that overflows
        ``k(x, x) + lam``, for the model before ``X[i]``'s block. The kernel
        columns of each block of ``BLOCK_ROWS`` samples come from one kernel
        evaluation, so they may round differently from one-sample columns in
        the last bit.
        """
        data = ComplexDataset(X=X, y=y)
        self._fix_dim(data.d)
        return self._stream(data.X, data.y.tolist(), "observe_many: y[{}]")

    def inverse_residual(self) -> float:
        """``max |Q (K_DD + lam I) - I|`` over the current dictionary, from the
        kept Gram: one m x m product, no kernel evaluation. This is the exact
        residual; the periodic self-check takes the cheaper probe one."""
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
        new_y = np.zeros(new_cap, dtype=np.complex128)
        new_a = np.zeros(new_cap, dtype=np.complex128)
        new_q = np.zeros((new_cap, new_cap), dtype=self._dtype, order="F")
        new_k = np.zeros((new_cap, new_cap), dtype=self._dtype, order="F")
        m = self._m
        if m:
            new_d[:m] = self._D[:m]
            new_y[:m] = self._y[:m]
            new_a[:m] = self._alpha[:m]
            new_q[:m, :m] = self._Q[:m, :m]
            new_k[:m, :m] = self._A[:m, :m]
        self._D, self._y, self._alpha = new_d, new_y, new_a
        self._Q, self._A = new_q, new_k
        # rows drawn in order, so a larger block extends a smaller one
        draws = np.random.default_rng(PROBE_SEED).random((new_cap, PROBE_COLUMNS))
        self._V = np.where(draws < 0.5, -1.0, 1.0)
        self._cap = new_cap

    def _stream(self, x: np.ndarray, y, name: str) -> np.ndarray:
        """Predict and admit checked rows ``x`` in order, with targets ``y``
        (Python complex numbers, so that each sample's arithmetic is that of
        :meth:`observe`), running the periodic self-check; returns the
        predictions. The kernel columns come a block at a time, as the module
        docstring describes. A sample whose update would make a coefficient
        NaN or infinite raises ``ValueError`` naming its target, ``name``
        formatted with the sample's index, before the sample writes any state;
        the samples before it stay admitted. A block where ``k(x, x) + lam``
        overflows raises ``ValueError`` naming the ridge weight before any of
        its samples is admitted."""
        preds = np.empty(len(y), dtype=np.complex128)
        with limit_blas_threads(1), np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(y), BLOCK_ROWS):
                stop = min(start + BLOCK_ROWS, len(y))
                m = self._m
                # (m, d) rows of the dictionary, also before a first block sizes it
                rows = np.concatenate((self._D[:m].reshape(m, x.shape[1]), x[start:stop]))
                gram = self.spec._gram(rows, rows[m:])
                cross = gram[m:]
                shifted = cross.diagonal().real + self.lam  # k(x, x) + lam
                if not np.isfinite(shifted).all():
                    raise ValueError(f"ridge weight {self.lam!r} overflows k(x, x) + lam")
                shifted = shifted.tolist()
                self._ensure_capacity(m + stop - start)
                cols = np.zeros((self._cap, stop - start), dtype=self._dtype, order="F")
                cols[:m] = gram[:m]
                for t, i in enumerate(range(start, stop)):
                    # the newcomer waits in the spare slot m until it is placed
                    m = self._m
                    self._D[m], self._y[m] = x[i], y[i]
                    try:
                        preds[i], s = self._step(cols[:, t], shifted[t], y[i])
                    except FloatingPointError:
                        raise ValueError(f"{name.format(i)} = {y[i]!r} makes a coefficient "
                                         "non-finite; the sample is not admitted") from None
                    if s is not None:
                        cols[s, t + 1 :] = cross[t, t + 1 :]
                    self._observed += 1
                    if self._observed % RESIDUAL_CHECK_INTERVAL == 0:
                        stats = self.stats
                        stats["residual_last"] = residual = self._probe_residual()
                        stats["residual_max"] = max(stats["residual_max"], residual)
                        if residual > RESIDUAL_TOL:
                            stats["rebuilds"]["residual"] += 1
                            _log.warning("inverse of the %d-sample dictionary drifted (probe "
                                         "residual %.3g); rebuilding", self._m, residual)
                            self._rebuild()
        return preds

    def _probe_residual(self) -> float:
        """``max |Q (A V) - V|`` over the live rows, for the Gram ``A`` and the
        probe block ``V``: one m x k product, then one ``?symv``/``?hemv`` per
        column on the lower triangle of ``Q`` with a zero-padded vector."""
        m = self._m
        v = self._V[:m]
        av = np.zeros((self._cap, PROBE_COLUMNS), dtype=self._dtype, order="F")
        av[:m] = self._A[:m, :m] @ v
        return max(
            float(np.max(np.abs(self._hemv(1.0, self._Q, av[:, j], lower=1)[:m] - v[:, j])))
            for j in range(PROBE_COLUMNS)
        )

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
            self._place(m, col, c)  # the spare slot: no live state yet
            q, new_alpha = self._solve(range(m + 1))
            r = m
            if full:
                _check_finite(new_alpha)
                r = int((np.abs(new_alpha) ** 2 / q.diagonal()[: m + 1].real).argmin())
                q, new_alpha = self._solve([m if s == r else s for s in range(m)])
            _check_finite(new_alpha)
            stats["rebuilds"]["singular"] += 1
            _log.warning("singular rank-1 update at dictionary size %d; rebuilding", m)
            self._place(r, col, c)
            self._m = len(new_alpha)
            self._Q, self._alpha[: self._m] = q, new_alpha
            if full:
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
            _check_finite(new_alpha, err / gamma)
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
            # admitting and evicting it is the identity; a numpy square overflows to inf
            if np.float64(abs(err)) ** 2 / gamma < scores[r]:
                stats["skipped"] += 1
                return pred, None
            # w: column r of the admitted inverse, from row and column r of the triangle
            w = np.concatenate((q[r, :r].conj(), q[r:, r]))
            w += b * (np.conj(b[r]) / gamma)
            w[r] = -np.conj(b[r]) / gamma
            w /= np.sqrt(q_diag[r])
            evicted, new_alpha[r] = new_alpha[r], err / gamma
            new_alpha -= w[:m] * (evicted / np.sqrt(q_diag[r]))
            _check_finite(new_alpha)
            b[r] = -1.0
            b /= np.sqrt(gamma)
            # Q += b b^H - w w^H on the zeroed slot: (b + w)(b - w)^H / 2 + adjoint
            q[r, :] = q[:, r] = 0.0
            self._her2(0.5, b + w, b - w, lower=1, a=q, overwrite_a=True)
            alpha[:] = new_alpha
            stats["replacements"] += 1
        self._place(r, col, c)
        stats["admits"] += 1
        return pred, r

    def _place(self, s: int, col: np.ndarray, c: float) -> None:
        """Move the newcomer from spare slot ``len(col)`` into slot ``s``."""
        a, m = self._A, col.shape[0]
        for v in (self._D, self._y):
            v[s] = v[m]
        a[:m, s] = col
        a[s, :m] = col.conj()
        a[s, s] = c

    def _solve(self, slots) -> tuple[np.ndarray, np.ndarray]:
        """A new buffer like ``Q`` holding the inverse of the kept Gram on the
        dictionary ``slots``, in their order and zero elsewhere, and the
        coefficients of their targets; the model is not written."""
        m = len(slots)
        q = np.zeros_like(self._Q)
        q[:m, :m] = hermitian_solve(self._A[np.ix_(slots, slots)], np.eye(m, dtype=self._dtype))
        return q, q[:m, :m] @ self._y[slots]

    def _rebuild(self) -> None:
        self._Q, self._alpha[: self._m] = self._solve(range(self._m))


def streaming_ridge_predictions(
    spec: KernelSpec, x, y, lam: float
) -> np.ndarray:
    """One-step-ahead predictions of unbounded recursive ridge on a stream.

    Entry i is the prediction of ``y[i]`` from the ridge fit of samples
    ``0..i-1`` (0 for the first sample), i.e. exactly what an unbudgeted
    :class:`Wrkls` emits from successive ``observe`` calls, computed with a
    single Cholesky factorization: with ``L L^H = K + lam I`` and
    ``z = L^-1 y``, the prediction sequence is ``y - diag(L) * z``. ``x`` and
    ``y`` are checked as a :class:`~wrkhs.core.ComplexDataset`; targets that
    overflow a prediction raise ``ValueError`` naming the first one lost, and
    a ``lam`` that overflows ``k(x, x) + lam`` one naming the ridge weight.
    """
    lam = _recursion_lam(spec, lam)
    data = ComplexDataset(X=x, y=y)
    x, y = data.X, data.y
    low, _ = ridge_factor(spec._gram(x, x), lam, lambda: spec._gram(x, x))
    with np.errstate(over="ignore", invalid="ignore"):
        preds = y - low[packed_diagonal(len(y))].real * packed_forward(low, y)
    finite = np.isfinite(preds)
    if not finite.all():
        raise ValueError(f"streaming_ridge_predictions: the prediction of y[{finite.argmin()}] "
                         "is non-finite; the targets overflow")
    return preds
