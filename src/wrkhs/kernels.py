"""Kernel zoo: kernels, pseudo-kernels, and Gram-matrix builders.

Families
--------
Three Gaussian kernels with a null pseudo-kernel -- ``RealGaussian`` (real,
stationary; the building block of the others), ``ComplexGaussian`` (complex,
non-stationary, saturated at exp(700) with a warning) and
``IndependentGaussian`` (a real Gaussian of the real/imaginary parts) -- and
three block-composed pairs with a pseudo-kernel: ``RealImagBlocks`` (four
real part kernels rr, jj, rj, jr), ``SeparateRealImag`` (independent real
and imaginary output parts) and ``SumOfSeparable`` (the mixed-effect design).
Each class docstring gives its formula.

The real Gaussian (one term) and the last three share one evaluator over a
list of real Gaussian terms, each with a kernel and a pseudo-kernel
coefficient (the separable form); a sum whose coefficient moduli do not sum
to a finite bound is refused when it is built. Such a pair is
*phase-aligned* when its kernel is real and its pseudo-kernel is ``p S``
for one unit ``p`` and a real ``S``; ``phase`` reports ``p`` (None for
every other spec).
``_ridge_systems`` builds the real form of the widely-linear ridge system:
for an aligned pair the real ``K + S`` and ``K - S`` of two real solves, for
any other one real 2n x 2n system.

Every family exposes ``pair`` (the kernel and pseudo-kernel Gram matrices
from one evaluation), ``gram``/``pseudo_gram`` and ``diag`` (both at ``x' =
x`` in O(n)). ``predict`` evaluates ``apply_pairs``, which takes ``x`` in
blocks of rows, each one distance matrix against ``z`` for every ``(spec,
alpha)``; the sums of real Gaussians apply one ``exp`` per distinct gamma to
``a_gamma alpha + b_gamma conj(alpha)``, without forming ``K`` or ``Kt``.
Their inputs follow ``core.as_samples``: rows are samples, a 1-D input is n
scalar samples, and NaN or infinite entries raise ``ValueError``. Behind
them each family's ``_gram`` evaluates checked samples; the online recursion
calls it directly on rows it has checked once.

Every family but the complex Gaussian gets its squared distances from one
primitive, ``_sqdist``, which takes the squared sample norms itself
(``sq_norms``; no caller passes them): complex rows enter as their
interleaved real (n, 2d) view, with the same distances, so the cross
products are one real GEMM, and the norm adds and the clamp at 0 run in
place in its output; it refuses a sample whose squared norm exceeds
``MAX_SQUARED_NORM``, whose distances would overflow, with a ``ValueError``
naming its operand. The samples against themselves (``x' = x``) give the
packed (RFP, see ``core``) lower triangle: one ``dsfrk``, then one norm sum
``aa_i + aa_j`` per entry, by columns of the packed array.
``_gaussian_sums`` is the one evaluation of sums of real Gaussians, for
every family but the complex Gaussian, the ridge systems and
``apply_pairs``, one ``exp`` per tile (``_tiles``; an ``apply_pairs`` block
is one tile; a packed triangle's tiles are contiguous slices), into buffers
its caller passes: ``_combine`` writes the last real sum over the distances.
So ``_gram(x, x)``, ``_pair(x, x)`` and ``_ridge_systems(x)`` give packed
triangles, which ``core.ridge_solve`` shifts and factors in place.
``IndependentGaussian`` packs one full matrix, its cross term minus its
transpose. ``ComplexGaussian`` packs the lower triangle of its exponent, one
product laid out by columns, with a real diagonal, and takes one ``exp`` per
stored entry; it warns once per call, from its caller's line, when it
saturates, and refuses an exponent with no defined phase. The public
``gram`` and ``pair`` unpack a triangle when ``z`` is ``x`` as passed (or
None), so a Gram is exactly Hermitian and its pseudo-kernel Gram exactly
symmetric. A ridge shift is therefore a diagonal add. Specs are immutable
and hashable; all evaluations are pure and thread-safe.
"""

from __future__ import annotations

import contextvars
import math
import sys
import warnings
from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg.lapack import dsfrk

from .core import as_float, as_samples, packed, stacked_apply, store_as_annotated, unpacked

__all__ = [
    "KernelSpec",
    "RealGaussian",
    "ComplexGaussian",
    "IndependentGaussian",
    "RealImagBlocks",
    "SeparateRealImag",
    "SumOfSeparable",
    "KernelOverflowWarning",
    "kernel_from_config",
]

# Largest exponent fed to exp() for the complex Gaussian before saturation.
EXP_SATURATION = 700.0

# A sum of Gaussians runs in tiles of whole rows (of a packed triangle, slices),
# each 1/TILES of the matrix but at least TILE_ENTRIES entries. The temporaries
# of a tile (a few) then stay a few per cent of the matrix, and there are about
# TILES tiles whatever its size.
TILES = 128
TILE_ENTRIES = 4096

# The largest squared sample norm the distances take: |a|^2 + |b|^2 - 2 <a, b>
# is then at most 4 times it, so no product, term or partial sum overflows.
MAX_SQUARED_NORM = np.finfo(np.float64).max / 4

# Rows of x per block of ``apply_pairs``: a block holds a few APPLY_BLOCK_ROWS
# x n buffers whatever the number of rows; 128, 256 and 512 rows ran alike.
APPLY_BLOCK_ROWS = 256


class KernelOverflowWarning(RuntimeWarning):
    """The complex Gaussian exponent exceeded the saturation threshold."""


def _validated(x, z) -> tuple[np.ndarray, np.ndarray]:
    x, z = as_samples(x, "x"), None if z is x else z  # the same input, whatever its type
    z = x if z is None else as_samples(z, "z")
    if x.shape[1] != z.shape[1]:
        raise ValueError(f"input dimension mismatch: {x.shape[1]} vs {z.shape[1]}")
    return x, z


def sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared norms |a_i|^2 of (n, d) complex128 or float64 rows, summed over
    their interleaved real view: the one norm rule of the distances."""
    ar = np.ascontiguousarray(a).view(np.float64)
    return np.einsum("ij,ij->i", ar, ar)


def _tiles(shape: tuple[int, int]):
    """Yield slices of the rows of a ``shape`` array, each a block of whole rows
    (see ``TILES``; an ``apply_pairs`` block is one)."""
    m, n = shape
    size = m * max(1, n) if m <= APPLY_BLOCK_ROWS else max(TILE_ENTRIES, m * n // TILES)
    r = max(1, size // max(1, n))
    for i in range(0, m, r):
        yield slice(i, i + r)


def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances |a_i - b_j|^2 of (n, d) complex128
    or float64 rows, as ``|a_i|^2 + |b_j|^2 - 2 <a_i, b_j>`` clamped at 0.

    The rows enter through their interleaved real view, (n, 2d) for complex
    rows, whose Euclidean distances are the same: the cross products are one
    real GEMM, and the epilogue runs in place in its output. It takes the
    squared row norms (:func:`sq_norms`) itself; a row of ``a`` (``b``) with
    a squared norm above ``MAX_SQUARED_NORM`` raises ``ValueError`` naming
    ``x`` (``z``) before any product.

    When ``b is a`` only the lower triangle is computed, packed (RFP, see
    ``core``): one ``dsfrk``, then the sum ``aa_i + aa_j`` a column of the
    packed array at a time, and the clamp.
    """
    ar = np.ascontiguousarray(a).view(np.float64)
    aa = _bounded(sq_norms(ar), "x")
    if b is a:
        (n, k), size = ar.shape, ar.shape[0] * (ar.shape[0] + 1) // 2
        d2 = np.zeros(size) if 0 in ar.shape else dsfrk(
            n, k, -2.0, ar.T, 0.0, np.empty(size), uplo="L", trans="T", overwrite_c=1)
        c, t = (n + 1) // 2, n % 2
        for j, col in enumerate(d2.reshape(c, -1) if n else []):
            u = j + 1 - t  # column j: the trailing triangle's row c + u - 1, then A[j:, j]
            col[:u] += aa[c : c + u] + aa[c + u - 1]
            col[u:] += aa[j:] + aa[j]
        return np.maximum(d2, 0.0, out=d2)
    br = np.ascontiguousarray(b).view(np.float64)
    bb = _bounded(sq_norms(br), "z")
    d2 = ar @ br.T
    d2 *= -2.0
    d2 += aa[:, None]
    d2 += bb
    return np.maximum(d2, 0.0, out=d2)


def _bounded(norms: np.ndarray, name: str) -> np.ndarray:
    """The squared sample norms ``norms``; ``ValueError`` naming ``name`` when
    one exceeds ``MAX_SQUARED_NORM``, so that no distance overflows."""
    if len(norms) and norms.max() > MAX_SQUARED_NORM:
        raise ValueError(f"{name} has a sample of squared norm {norms.max():.3g}, above "
                         f"{MAX_SQUARED_NORM:.3g}: its squared distances would overflow")
    return norms


# an exponent that overflows to -inf gives exp 0, as any below about -745 does
@np.errstate(over="ignore")
def _gaussian_sums(d2, gammas, columns, outs) -> list[np.ndarray]:
    """``sum_g c_g exp(-d2 / gamma_g)`` for each column ``c`` of coefficients,
    which holds one per gamma, written into its buffer of ``outs``: the one
    evaluation of sums of real Gaussians.

    ``d2`` is any array of distances (a packed triangle, a rectangle), and
    each buffer is laid out as it is, real unless its column holds a complex
    coefficient. Tile by tile (:func:`_tiles`), each ``exp`` is written to
    its own tile-sized buffer ``e``, or straight into the first real sum
    whose first term it is with coefficient 1; a sum starts as ``c * e`` and
    adds later terms in gamma order, and that of an all-zero column is 0.
    A buffer may be ``d2`` itself: when a term before the last gamma weights
    it, each tile's distances are read from a copy, and otherwise in place,
    as the last ``divide`` has read them before any sum is written.
    """
    used = [(g, cs) for g, cs in zip(gammas, zip(*columns)) if any(cs)]
    copy = any(o is d2 and any(cs[k] for _, cs in used[:-1]) for k, o in enumerate(outs))
    d2v, *outv = [a[:, None] if a.ndim < 2 else a for a in (d2, *outs)]
    for tile in _tiles(d2v.shape):
        d = d2v[tile].copy() if copy else d2v[tile]
        acc = [o[tile] for o in outv]
        started = [False] * len(acc)
        for gamma, cs in used:
            first = next((k for k, c in enumerate(cs) if c == 1 and not started[k]
                          and acc[k].dtype == np.float64), None)
            e = np.divide(d, -gamma, out=None if first is None else acc[first])
            np.exp(e, out=e)
            for k, c in enumerate(cs):
                if k == first:
                    started[k] = True
                elif c and started[k]:
                    acc[k] += e if c == 1 else c * e
                elif c:
                    np.multiply(e, c, out=acc[k])
                    started[k] = True
        for zero in [a for a, s in zip(acc, started) if not s]:  # all-zero columns
            zero[...] = 0.0
    return outs


# In an ``apply_pairs`` walk, the list its saturations are noted in, to warn once
_saturations = contextvars.ContextVar("saturations", default=None)


def _saturated(expo: np.ndarray) -> np.ndarray:
    """Real exponents clipped at ``EXP_SATURATION`` in place, with a warning if any was."""
    if np.any(expo > EXP_SATURATION):
        seen = _saturations.get()
        if seen is None:
            _overflow_warning()
        else:
            seen.append(True)
        np.minimum(expo, EXP_SATURATION, out=expo)
    return expo


def _overflow_warning() -> None:
    """Warn of a saturated exponent, from the first caller outside the package."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__package__") == __package__:
        frame, level = frame.f_back, level + 1
    warnings.warn("complex Gaussian exponent exceeded saturation threshold; "
                  "values clipped at exp(700)", KernelOverflowWarning, stacklevel=level)


def apply_pairs(x, z, pairs) -> list[np.ndarray]:
    """``K(x, z) alpha + Kt(x, z) conj(alpha)`` for each ``(spec, alpha)`` of
    ``pairs``, ``alpha`` a vector, by blocks of ``APPLY_BLOCK_ROWS`` rows of
    ``x``: a row's value depends on no other row. A block takes one
    ``_sqdist``, then one ``exp`` per gamma distinct over the sums of real
    Gaussians, as one tile in a buffer kept across blocks (the last gamma's
    in the distances' own), times ``a_gamma alpha + b_gamma conj(alpha)`` of
    every spec using that gamma. Any other spec's block is its ``_gram``
    times ``alpha``."""
    x, z = _validated(x, z)
    outs = [np.zeros(len(x), dtype=np.complex128) for _ in pairs]
    by_gamma = {}
    for k, (spec, alpha) in enumerate(pairs):
        alpha = np.asarray(alpha, dtype=np.complex128)
        for gamma, (a, b) in (spec._coefficients() if isinstance(spec, _TermSum) else {}).items():
            if a != 0 or b != 0:
                by_gamma.setdefault(gamma, []).append((k, a * alpha + b * alpha.conj()))
    g = np.empty((min(len(x), APPLY_BLOCK_ROWS), len(z))) if len(by_gamma) > 1 else None
    seen = []
    token = _saturations.set(seen)
    try:
        for start in range(0, len(x), APPLY_BLOCK_ROWS):
            rows = slice(start, start + APPLY_BLOCK_ROWS)
            xb = x[rows]
            d2 = _sqdist(xb, z) if by_gamma else None
            for i, (gamma, columns) in enumerate(by_gamma.items()):
                e = d2 if i == len(by_gamma) - 1 else g[: len(xb)]
                _gaussian_sums(d2, [gamma], [[1.0]], [e])
                # a product per spec: one of stacked columns would round the
                # rows of a block's tail apart from a lone spec's
                for k, column in columns:
                    outs[k][rows] += stacked_apply(np.matmul, e, column)
            for (spec, alpha), out in zip(pairs, outs):
                if not isinstance(spec, _TermSum):
                    out[rows] = stacked_apply(np.matmul, spec._gram(xb, z), alpha)
            d2 = e = None  # freed before the next block's distances
    finally:
        _saturations.reset(token)
    if seen:
        _overflow_warning()
    return outs


class KernelSpec:
    """Base class for kernel/pseudo-kernel pairs. Subclasses are frozen."""

    family: str = ""

    # -- evaluation ---------------------------------------------------------

    def gram(self, x, z=None) -> np.ndarray:
        """Kernel Gram matrix K with ``K[i, j] = k(x_i, z_j)``; at ``z = x`` the
        packed lower triangle unpacked and mirrored, so exactly Hermitian."""
        x, z = _validated(x, z)
        k = self._gram(x, z)
        return unpacked(k) if z is x else k

    def pair(self, x, z=None) -> tuple[np.ndarray, np.ndarray]:
        """``(K, Kt)`` with ``Kt[i, j] = ktilde(x_i, z_j)``, from one evaluation;
        at ``z = x`` unpacked and mirrored, so exactly Hermitian and exactly symmetric."""
        x, z = _validated(x, z)
        k, kt = self._pair(x, z)
        return (unpacked(k), unpacked(kt, conj=False)) if z is x else (k, kt)

    def pseudo_gram(self, x, z=None) -> np.ndarray:
        """Pseudo-kernel Gram matrix with entries ``ktilde(x_i, z_j)``."""
        return self.pair(x, z)[1]

    def diag(self, x) -> tuple[np.ndarray, np.ndarray]:
        """``(k(x_i, x_i), ktilde(x_i, x_i))`` for each row, in O(n) memory."""
        x = as_samples(x, "x")
        # every family but the complex Gaussian is stationary: k(x, x) = k(0, 0)
        zero = np.zeros((1, x.shape[1]), dtype=np.complex128)
        k, kt = self._pair(zero, zero)  # packed triangles of order 1
        return np.full(x.shape[0], k[0]), np.full(x.shape[0], kt[0])

    # -- structure ----------------------------------------------------------

    @property
    def has_null_pseudo(self) -> bool:
        """True when the pseudo-kernel is identically zero by construction."""
        return True

    @property
    def is_real_valued(self) -> bool:
        """True when every kernel value is real (enables real Gram storage)."""
        return False

    @property
    def phase(self) -> complex | None:
        """The unit ``p`` of a phase-aligned pair (real ``K``, ``Kt = p S``
        with ``S`` real and not null), or None."""
        return None

    def _gram(self, x, z) -> np.ndarray:
        """The Gram matrix of checked samples. At ``z is x`` it is the packed
        lower triangle (RFP, see ``core``), which a solve may factor in place."""
        raise NotImplementedError

    def _pair(self, x, z) -> tuple[np.ndarray, np.ndarray]:
        k = self._gram(x, z)
        return k, np.zeros(k.shape)

    # -- serialization ------------------------------------------------------

    def to_config(self) -> dict:
        """``{"family": ..., "params": ...}`` with one param per dataclass field;
        a part-kernel field holds that kernel's params."""
        params = {}
        for f in fields(self):
            value = getattr(self, f.name)
            params[f.name] = value.to_config()["params"] if isinstance(value, KernelSpec) else value
        return {"family": self.family, "params": params}


class _Gaussian(KernelSpec):
    """A Gaussian family: fields stored as floats (``core.store_as_annotated``),
    ``gamma`` finite and positive, a ``scale`` finite and non-negative."""

    def __post_init__(self):
        store_as_annotated(self)
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be finite and positive, got {self.gamma}")
        scale = getattr(self, "scale", 1.0)
        if not (math.isfinite(scale) and scale >= 0):
            raise ValueError(f"scale must be finite and non-negative, got {scale}")


@dataclass(frozen=True)
class ComplexGaussian(_Gaussian):
    """``exp(-(x - conj(x'))^T (x - conj(x')) / gamma)``.

    The exponent uses the plain transpose, not the conjugate transpose:
    real parts are compared through ``|xr - xr'|^2`` but imaginary parts
    through ``-|xj + xj'|^2``, so the value is complex and unbounded on the
    diagonal (``k(x, x) = exp(4 |xj|^2 / gamma)``).
    """

    gamma: float
    family = "complex_gaussian"

    def _gram(self, x, z):
        # (x - z*)^T (x - z*) = sum x^2 + sum (z*)^2 - 2 x . z*, laid out by columns
        with np.errstate(over="ignore", invalid="ignore"):
            expo = (z.conj() @ x.T).T
            expo *= 2.0
            expo -= np.sum(x**2, axis=1)[:, None]
            expo -= np.sum(z.conj() ** 2, axis=1)
            expo /= self.gamma
        if z is x:  # exactly Hermitian: the lower triangle packed, k(x, x) real
            np.fill_diagonal(expo.imag, 0.0)
            expo = packed(expo)
        if np.isnan(expo).any() or (np.isinf(expo.imag) & (expo.real > -np.inf)).any():
            raise ValueError("complex Gaussian exponent has no defined phase "
                             "(NaN or infinite imaginary part): inputs too large for gamma")
        _saturated(expo.real)
        return np.exp(expo, out=expo)

    def diag(self, x):
        # x = x': the exponent is 4 |Im x|^2 / gamma, real
        x = as_samples(x, "x")
        with np.errstate(over="ignore"):
            expo = 4.0 * np.sum(x.imag**2, axis=1) / self.gamma
        return np.exp(_saturated(expo)), np.zeros(x.shape[0])


@dataclass(frozen=True)
class IndependentGaussian(_Gaussian):
    """Independent kernel: real Gaussian applied to real/imag part pairs.

    ``k(x,x') = kappa(xr,xr') + kappa(xj,xj') + j(kappa(xr,xj') - kappa(xj,xr'))``
    with ``kappa(u,v) = exp(-|u - v|^2 / gamma)`` on real vectors. The same
    ``gamma`` is shared by all four terms.
    """

    gamma: float
    family = "independent"

    def _gram(self, x, z):
        for name, rows in (("x", x), ("z", z)):  # checked whole: kappa sees only their parts
            _bounded(sq_norms(rows), name)
        kap = RealGaussian(self.gamma)._gram
        xr, xj = np.ascontiguousarray(x.real), np.ascontiguousarray(x.imag)
        if z is x:  # exactly Hermitian: kappa(xj, xr) is the transpose of kappa(xr, xj)
            k = np.zeros((len(x), len(x)), np.complex128, order="F")
            k.imag[...] = kap(xr, xj)
            k.imag -= k.imag.T.copy()
            k = packed(k)
            k += kap(xr, xr) + kap(xj, xj)
            return k
        return kap(xr, z.real) + kap(xj, z.imag) + 1j * (kap(xr, z.imag) - kap(xj, z.real))


def _real_part_kernel(obj, name: str) -> None:
    if not isinstance(obj, RealGaussian):
        raise TypeError(
            f"block kernel {name} must be a real-valued kernel of complex inputs "
            f"(RealGaussian), got {type(obj).__name__}"
        )


class _TermSum(KernelSpec):
    """Kernel ``sum_q a_q k_q`` and pseudo-kernel ``sum_q b_q k_q`` over real
    Gaussians ``k_q``; subclasses list their ``(k_q, a_q, b_q)`` in ``_terms``.

    One evaluation computes the squared distances once and each distinct
    ``exp(-d2 / gamma)`` once, folding the part scales into the coefficients.
    The defaults below serve the families whose fields are their part kernels.
    """

    def __post_init__(self):
        for f in fields(self):
            _real_part_kernel(getattr(self, f.name), f.name)
        self._check_coefficients()

    def _check_coefficients(self) -> None:
        """Refuse coefficients whose sum of moduli ``sum |a_gamma| + |b_gamma|``,
        which bounds every entry of ``K``, ``Kt`` and the ridge systems, is
        not finite."""
        bound = sum(math.hypot(c.real, c.imag) for ab in self._coefficients().values() for c in ab)
        if not math.isfinite(bound):
            raise ValueError(f"{self.family} kernel coefficients overflow: the sum of their "
                             f"moduli, a bound on every kernel value, is {bound}")

    def _terms(self) -> tuple[tuple[RealGaussian, complex, complex], ...]:
        raise NotImplementedError

    def _coefficients(self) -> dict[float, tuple[complex, complex]]:
        """Summed (kernel, pseudo-kernel) coefficient of each distinct gamma."""
        sums: dict[float, tuple[complex, complex]] = {}
        for g, a, b in self._terms():
            sa, sb = sums.get(g.gamma, (0j, 0j))
            sums[g.gamma] = (sa + g.scale * a, sb + g.scale * b)
        # a real coefficient keeps its Gram matrix real
        return {
            gamma: tuple(c.real if c.imag == 0 else c for c in ab)
            for gamma, ab in sums.items()
        }

    def _combine(self, x, z, columns) -> list[np.ndarray]:
        """``sum_gamma c_gamma exp(-|x_i - z_j|^2 / gamma)`` for each column, one
        ``c_gamma`` per distinct gamma in the order of :meth:`_coefficients`, by
        :func:`_gaussian_sums`: the last real sum with a non-zero term is
        written over the distances, and each other sum into a new buffer."""
        d2 = _sqdist(x, z)
        dtypes = [np.result_type(np.float64, *col) for col in columns]
        real = [k for k, col in enumerate(columns) if any(col) and dtypes[k] == np.float64]
        outs = [d2 if real and k == real[-1] else np.empty_like(d2, t)
                for k, t in enumerate(dtypes)]
        return _gaussian_sums(d2, list(self._coefficients()), columns, outs)

    def _gram(self, x, z):
        return self._combine(x, z, [[a for a, _ in self._coefficients().values()]])[0]

    def _pair(self, x, z):
        return tuple(self._combine(x, z, list(zip(*self._coefficients().values()))))

    @property
    def has_null_pseudo(self) -> bool:
        return all(b == 0 for _, b in self._coefficients().values())

    @property
    def is_real_valued(self) -> bool:
        return all(np.imag(a) == 0 for a, _ in self._coefficients().values())

    @property
    def phase(self) -> complex | None:
        """Aligned when every ``a_gamma`` is real and every non-zero ``b_gamma``
        is a real multiple of the first, ``b_0``: exactly when
        ``Im(b_gamma conj(b_0)) == 0``. ``p`` is the unit of ``b_0`` turned to
        ``Re p > 0``, or ``p = j``, which keeps ``|1 + p|^2 >= 2``."""
        nonzero = [complex(b) for _, b in self._coefficients().values() if b != 0]
        if not nonzero or not self.is_real_valued:
            return None
        b0 = nonzero[0]
        if any((b * b0.conjugate()).imag != 0 for b in nonzero):
            return None
        p = b0 / abs(b0)
        return -p if p.real < 0 or (p.real == 0 and p.imag < 0) else p

    def _ridge_systems(self, x) -> tuple[complex, list[np.ndarray]]:
        """The real form of the widely-linear ridge system on checked samples:
        ``h`` and the packed triangles of ``[[R, C], [C, J]]``, whose solution
        ``[br; bi]`` of ``[Re y/h; Im y/h]`` gives ``alpha = h (br + j bi)``.

        With ``p = phase``, or 1 when there is none, ``h = 1 + p`` and each
        block is a real sum of Gaussians: ``R = K + S`` and ``J = K - S`` for
        ``S = sum_gamma Re(b_gamma conj(p)) G_gamma``, and ``C = Im Kt``. A
        phase-aligned pair has ``C = 0`` by definition, so two n x n systems,
        ``R`` and ``J``. Any other pair gives one packed 2n x 2n system whose
        column j holds ``J``'s row j to the diagonal, then ``R``'s and ``C``'s
        column j: one :func:`_gaussian_sums` call per tile of rows, ``R`` into a
        tile buffer, then each row's ``R`` from the diagonal on over ``J``'s.
        """
        p = self.phase
        aligned = p is not None
        p = p if aligned else 1
        coefficients = self._coefficients()
        rotated = [(a, complex(b) * p.conjugate()) for a, b in coefficients.values()]
        columns = [[a + s.real for a, s in rotated], [a - s.real for a, s in rotated]]
        if aligned:
            return 1 + p, self._combine(x, x, columns)
        (n, _), gammas = x.shape, list(coefficients)
        r, j, c = *columns, [s.imag for _, s in rotated]
        cols = np.empty((n, 2 * n + 1))
        for rows in _tiles((n, n)):
            d = _sqdist(x[rows], x)
            r_rows = np.empty_like(d)
            _gaussian_sums(d, gammas, [r, j, c], [r_rows, cols[rows, :n], cols[rows, n + 1 :]])
            for i, row in enumerate(r_rows, rows.start):
                cols[i, i + 1 : n + 1] = row[i:]
        return 1 + p, [cols.reshape(-1)]


@dataclass(frozen=True)
class RealGaussian(_Gaussian, _TermSum):
    """``scale * exp(-|x - x'|^2 / gamma)`` on complex (or real) vectors; one term."""

    gamma: float
    scale: float = 1.0
    family = "real_gaussian"

    def _terms(self):
        return ((self, 1, 0),)


@dataclass(frozen=True)
class RealImagBlocks(_TermSum):
    """Kernel/pseudo-kernel pair from four real-valued part kernels.

    kernel       = (rr + jj) + j (jr - rj)
    pseudo-kernel = (rr - jj) + j (jr + rj)

    The cross kernels must satisfy ``rj(x, x') == jr(x', x)``; for these
    symmetric Gaussians that holds exactly when ``rj == jr`` or both have
    zero scale, so the kernel is real.
    """

    rr: RealGaussian
    jj: RealGaussian
    rj: RealGaussian
    jr: RealGaussian
    family = "real_imag_blocks"

    def __post_init__(self):
        super().__post_init__()
        if self.rj != self.jr and (self.rj.scale != 0 or self.jr.scale != 0):
            raise ValueError(
                "cross kernels are inconsistent: rj(x, x') must equal jr(x', x)"
            )

    def _terms(self):
        return (
            (self.rr, 1, 1),
            (self.jj, 1, -1),
            (self.rj, -1j, 1j),
            (self.jr, 1j, 1j),
        )


@dataclass(frozen=True)
class SeparateRealImag(_TermSum):
    """Independent real and imaginary parts: kernel ``rr + jj``, pseudo ``rr - jj``."""

    rr: RealGaussian
    jj: RealGaussian
    family = "separate_real_imag"

    def _terms(self):
        return ((self.rr, 1, 1), (self.jj, 1, -1))


@dataclass(frozen=True)
class SumOfSeparable(_TermSum):
    """Mixed-effect sum-of-separable design over real part kernels.

    kernel        = 2  sum_q k_q
    pseudo-kernel = 2j sum_q w_q k_q   (pure imaginary)

    Weights must satisfy ``0 <= w_q < 1``; ``w_q = 0`` degenerates the term
    to the strictly-complex (null pseudo-kernel) case.
    """

    terms: tuple[tuple[RealGaussian, float], ...]
    family = "sum_of_separable"

    def __post_init__(self):
        terms = tuple((kq, as_float(w, "weight")) for kq, w in self.terms)
        if not terms:
            raise ValueError("terms must hold at least one separable term")
        for kq, w in terms:
            _real_part_kernel(kq, "terms")
            if not 0.0 <= w < 1.0:
                raise ValueError(f"weights must lie in [0, 1), got {w}")
        object.__setattr__(self, "terms", terms)
        self._check_coefficients()

    def _terms(self):
        return tuple((kq, 2, 2j * w) for kq, w in self.terms)

    def to_config(self) -> dict:
        terms = [{"weight": w, **kq.to_config()["params"]} for kq, w in self.terms]
        return {"family": self.family, "params": {"terms": terms}}


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

_FAMILIES = {cls.family: cls for cls in (RealGaussian, ComplexGaussian, IndependentGaussian,
                                         RealImagBlocks, SeparateRealImag, SumOfSeparable)}


def _from_params(cls, params: dict) -> KernelSpec:
    """``cls`` built from the fields present in ``params``, an object as a nested
    ``real_gaussian``; the constructor stores each number as a float. Other
    keys are ignored."""
    def param(v):
        return _from_params(RealGaussian, v) if isinstance(v, dict) else v

    return cls(**{f.name: param(params[f.name]) for f in fields(cls) if f.name in params})


def kernel_from_config(config: dict) -> KernelSpec:
    """Build a kernel spec from its JSON object ``{"family": ..., "params": ...}``."""
    if not isinstance(config, dict) or "family" not in config:
        raise ValueError("kernel config must be an object with a 'family' field")
    cls = _FAMILIES.get(config["family"])
    if cls is None:
        raise ValueError(f"unknown kernel family: {config['family']!r}")
    params = config.get("params", {})
    if cls is SumOfSeparable:
        terms = params["terms"]
        return cls(terms=tuple((_from_params(RealGaussian, t), t["weight"]) for t in terms))
    return _from_params(cls, params)
