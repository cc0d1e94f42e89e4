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

The last three share one evaluator over a list of real Gaussian terms, each
with a kernel and a pseudo-kernel coefficient (the separable form). Such a
pair is *phase-aligned* when its kernel is real and its pseudo-kernel is
``p S`` for one unit ``p`` and a real ``S``; ``phase`` reports ``p`` (None
for every other spec) and ``split_grams`` builds the real ``(K + S, K - S)``
that split the widely-linear ridge system into two real solves. Their
``apply`` sums one gamma at a time, without forming ``K`` or ``Kt``.

Every family exposes ``apply`` (what ``predict`` evaluates), ``pair`` (the
kernel and pseudo-kernel Gram matrices from one evaluation), ``gram``/
``pseudo_gram`` and ``diag`` (both at ``x' = x`` in O(n)). Their inputs
follow ``core.as_samples``: rows are samples, a 1-D input is n scalar
samples, and NaN or infinite entries raise ``ValueError``. Behind them each
family's ``_gram`` evaluates checked samples; the online recursion calls it
directly on rows it has checked once, with the norms it keeps by ``sq_norms``.

Every family but the complex Gaussian gets its squared distances from one
primitive, ``_sqdist``: complex rows enter as their interleaved real (n, 2d)
view, with the same distances, so the cross products are one real GEMM (a
``syrk`` when both sides are the same rows), and the norm adds, the clamp at
0, the divide and the ``exp`` all run in place in the GEMM's output. A Gram
(``x' = x``) is exactly Hermitian and its pseudo-kernel Gram exactly
symmetric, so a ridge shift is a diagonal add: ``_sqdist(x, x)`` is a ``syrk``
plus one norm sum per entry, the sums of real Gaussians and
``composite_matrix`` keep that entry by entry, ``IndependentGaussian``
transposes its one cross term and ``ComplexGaussian`` averages its exponent
with its adjoint. ``composite_matrix`` turns an evaluated pair into the real
composite matrix of the stacked real/imaginary system. Specs are immutable
and hashable; all evaluations are pure and thread-safe.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg.blas import daxpy

from .core import ASYMMETRY_BLOCK_ROWS, as_float, as_samples, stacked_apply, store_as_annotated

__all__ = [
    "KernelSpec",
    "RealGaussian",
    "ComplexGaussian",
    "IndependentGaussian",
    "RealImagBlocks",
    "SeparateRealImag",
    "SumOfSeparable",
    "KernelOverflowWarning",
    "composite_matrix",
    "kernel_from_config",
]

# Largest exponent fed to exp() for the complex Gaussian before saturation.
EXP_SATURATION = 700.0


class KernelOverflowWarning(RuntimeWarning):
    """The complex Gaussian exponent exceeded the saturation threshold."""


def _validated(x, z) -> tuple[np.ndarray, np.ndarray]:
    x = as_samples(x, "x")
    z = x if z is None else as_samples(z, "z")
    if x.shape[1] != z.shape[1]:
        raise ValueError(f"input dimension mismatch: {x.shape[1]} vs {z.shape[1]}")
    return x, z


def sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared norms |a_i|^2 of (n, d) complex128 or float64 rows, summed over
    their interleaved real view: the one norm rule of ``_sqdist`` and its callers."""
    ar = np.ascontiguousarray(a).view(np.float64)
    return np.einsum("ij,ij->i", ar, ar)


def _sqdist(a: np.ndarray, b: np.ndarray, aa=None, bb=None) -> np.ndarray:
    """Pairwise squared Euclidean distances |a_i - b_j|^2 of (n, d) complex128
    or float64 rows, as ``|a_i|^2 + |b_j|^2 - 2 <a_i, b_j>`` clamped at 0.

    The rows enter through their interleaved real view, (n, 2d) for complex
    rows, whose Euclidean distances are the same: the cross products are one
    real GEMM, and the epilogue runs in place in its output. ``aa`` and ``bb``
    are the squared row norms (:func:`sq_norms`) when the caller holds them.
    """
    ar = np.ascontiguousarray(a).view(np.float64)
    br = ar if b is a else np.ascontiguousarray(b).view(np.float64)
    if aa is None:
        aa = sq_norms(ar)
    d2 = ar @ br.T
    d2 *= -2.0
    if b is a:  # exactly symmetric: a syrk product plus one sum aa_i + aa_j per entry
        for i in range(0, len(aa), ASYMMETRY_BLOCK_ROWS):
            d2[i : i + ASYMMETRY_BLOCK_ROWS] += aa[i : i + ASYMMETRY_BLOCK_ROWS, None] + aa
    else:
        d2 += aa[:, None]
        d2 += sq_norms(br) if bb is None else bb
    return np.maximum(d2, 0.0, out=d2)


def _gaussian(d2: np.ndarray, gamma: float) -> np.ndarray:
    """``exp(-d2 / gamma)``, overwriting ``d2``."""
    return np.exp(np.divide(d2, -gamma, out=d2), out=d2)


def _accumulate(out: np.ndarray, c, e: np.ndarray) -> None:
    """``out += c * e`` in place for a real ``e`` (BLAS axpy, no temporary).

    A complex ``out`` takes two strided axpys over its float view.
    """
    x = e.reshape(-1)
    y = out.reshape(-1).view(np.float64)
    if np.iscomplexobj(out):
        daxpy(x, y, a=c.real, incy=2)
        daxpy(x, y, a=c.imag, offy=1, incy=2)
    else:
        daxpy(x, y, a=c)


def _saturated(expo: np.ndarray) -> np.ndarray:
    """Real exponents clipped at ``EXP_SATURATION``, with a warning if any was."""
    if np.any(expo > EXP_SATURATION):
        warnings.warn(
            "complex Gaussian exponent exceeded saturation threshold; "
            "values clipped at exp(700)",
            KernelOverflowWarning,
            stacklevel=4,
        )
        return np.minimum(expo, EXP_SATURATION)
    return expo


class KernelSpec:
    """Base class for kernel/pseudo-kernel pairs. Subclasses are frozen."""

    family: str = ""

    # -- evaluation ---------------------------------------------------------

    def gram(self, x, z=None) -> np.ndarray:
        """Kernel Gram matrix K with ``K[i, j] = k(x_i, z_j)``."""
        return self._gram(*_validated(x, z))

    def pair(self, x, z=None) -> tuple[np.ndarray, np.ndarray]:
        """``(K, Kt)`` with ``Kt[i, j] = ktilde(x_i, z_j)``, from one evaluation."""
        return self._pair(*_validated(x, z))

    def apply(self, x, z, alpha) -> np.ndarray:
        """``K(x, z) alpha + Kt(x, z) conj(alpha)``, where ``Kt`` is null: ``K alpha``."""
        return stacked_apply(np.matmul, self.gram(x, z), alpha)

    def pseudo_gram(self, x, z=None) -> np.ndarray:
        """Pseudo-kernel Gram matrix with entries ``ktilde(x_i, z_j)``."""
        return self.pair(x, z)[1]

    def diag(self, x) -> tuple[np.ndarray, np.ndarray]:
        """``(k(x_i, x_i), ktilde(x_i, x_i))`` for each row, in O(n) memory."""
        x = as_samples(x, "x")
        # every family but the complex Gaussian is stationary: k(x, x) = k(0, 0)
        zero = np.zeros((1, x.shape[1]), dtype=np.complex128)
        k, kt = self._pair(zero, zero)
        return np.full(x.shape[0], k[0, 0]), np.full(x.shape[0], kt[0, 0])

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

    def _gram(self, x, z, *norms) -> np.ndarray:
        """The Gram matrix of checked samples; ``norms`` may hold the squared
        row norms ``(xx, zz)`` of ``x`` and ``z`` when the caller has them (a
        family may ignore them)."""
        raise NotImplementedError

    def _pair(self, x, z) -> tuple[np.ndarray, np.ndarray]:
        return self._gram(x, z), np.zeros((x.shape[0], z.shape[0]))

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
class RealGaussian(_Gaussian):
    """``scale * exp(-|x - x'|^2 / gamma)`` on complex (or real) vectors."""

    gamma: float
    scale: float = 1.0
    family = "real_gaussian"

    def _gram(self, x, z, *norms):
        k = _gaussian(_sqdist(x, z, *norms), self.gamma)
        k *= self.scale
        return k

    @property
    def is_real_valued(self) -> bool:
        return True


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

    def _gram(self, x, z, *norms):
        # (x - z*)^T (x - z*) = sum x^2 + sum (z*)^2 - 2 x . z*
        sx = np.sum(x**2, axis=1)[:, None]
        sz = np.sum(z.conj() ** 2, axis=1)[None, :]
        cross = x @ z.conj().T
        expo = -(sx + sz - 2.0 * cross) / self.gamma
        if z is x:  # exactly Hermitian: k(x', x) has the conjugate exponent of k(x, x')
            expo = (expo + expo.conj().T) / 2.0
        return np.exp(_saturated(expo.real) + 1j * expo.imag)

    def diag(self, x):
        # x = x': the exponent is 4 |Im x|^2 / gamma, real
        x = as_samples(x, "x")
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

    def _gram(self, x, z, *norms):
        def kap(a, b):
            return _gaussian(_sqdist(a, b), self.gamma)

        xr, xj = np.ascontiguousarray(x.real), np.ascontiguousarray(x.imag)
        if z is x:  # exactly Hermitian: kappa(xj, xr) is the transpose of kappa(xr, xj)
            rj = kap(xr, xj)
            return kap(xr, xr) + kap(xj, xj) + 1j * (rj - rj.T)
        return kap(xr, z.real) + kap(xj, z.imag) + 1j * (kap(xr, z.imag) - kap(xj, z.real))


def _real_part_kernel(obj) -> None:
    if not isinstance(obj, RealGaussian):
        raise TypeError(
            "block kernels must be real-valued kernels of complex inputs "
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
            _real_part_kernel(getattr(self, f.name))

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

    def _exps(self, d2, columns):
        """Yield ``(c_gamma of each column, exp(-d2 / gamma))`` for each
        distinct gamma that some column weights, in the order of
        :meth:`_coefficients`. The last exp overwrites ``d2`` itself and the
        others share one buffer, which keeps the peak low."""
        used = [(g, cs) for g, cs in zip(self._coefficients(), zip(*columns)) if any(cs)]
        buffer = np.empty(d2.shape) if len(used) > 1 else None
        for i, (gamma, cs) in enumerate(used):
            e = d2 if i == len(used) - 1 else buffer
            yield cs, np.exp(np.divide(d2, -gamma, out=e), out=e)

    def _combine(self, x, z, columns, *norms) -> list[np.ndarray]:
        """``sum_gamma c_gamma exp(-|x_i - z_j|^2 / gamma)`` for each column.

        A column holds one coefficient ``c_gamma`` per distinct gamma, in the
        order of :meth:`_coefficients`; its matrix is real unless one of them
        is complex. Each matrix is accumulated in place.
        """
        d2 = _sqdist(x, z, *norms)
        out = [np.zeros(d2.shape, np.result_type(*col)) for col in columns]
        for cs, e in self._exps(d2, columns):
            for m, c in zip(out, cs):
                if c != 0:
                    _accumulate(m, c, e)
        return out

    def apply(self, x, z, alpha) -> np.ndarray:
        """``K(x, z) alpha + Kt(x, z) conj(alpha)`` one gamma at a time, as
        ``sum_gamma G_gamma (a_gamma alpha + b_gamma conj(alpha))``: neither
        ``K`` nor ``Kt`` is formed."""
        x, z = _validated(x, z)
        alpha = np.asarray(alpha, dtype=np.complex128)
        out = np.zeros(x.shape[0], dtype=np.complex128)
        for (a, b), e in self._exps(_sqdist(x, z), self._columns()):
            out += stacked_apply(np.matmul, e, a * alpha + b * alpha.conj())
        return out

    def _columns(self) -> list[tuple]:
        """The kernel and pseudo-kernel coefficient columns."""
        return list(zip(*self._coefficients().values()))

    def _gram(self, x, z, *norms):
        return self._combine(x, z, self._columns()[:1], *norms)[0]

    def _pair(self, x, z):
        return tuple(self._combine(x, z, self._columns()))

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

    def split_grams(self, x) -> tuple[np.ndarray, np.ndarray]:
        """The real ``(K + S, K - S)`` of a phase-aligned pair on ``x``."""
        p = self.phase
        if p is None:
            raise ValueError(f"this {self.family!r} spec is not phase-aligned")
        # S = sum_gamma s_gamma G_gamma with s_gamma = Re(b_gamma conj(p))
        plus, minus = [], []
        for a, b in self._coefficients().values():
            s = (complex(b) * p.conjugate()).real
            plus.append(a + s)
            minus.append(a - s)
        x = as_samples(x, "x")
        return tuple(self._combine(x, x, [plus, minus]))


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
            raise ValueError("at least one separable term is required")
        for kq, w in terms:
            _real_part_kernel(kq)
            if not 0.0 <= w < 1.0:
                raise ValueError(f"weights must lie in [0, 1), got {w}")
        object.__setattr__(self, "terms", terms)

    def _terms(self):
        return tuple((kq, 2, 2j * w) for kq, w in self.terms)

    def to_config(self) -> dict:
        terms = [{"weight": w, **kq.to_config()["params"]} for kq, w in self.terms]
        return {"family": self.family, "params": {"terms": terms}}


# ---------------------------------------------------------------------------
# derived Gram structures
# ---------------------------------------------------------------------------


def composite_matrix(k: np.ndarray, kt: np.ndarray) -> np.ndarray:
    """The real composite matrix ``2 [[rr, rj], [jr, jj]]`` of a pair ``(K, Kt)``.

    Its blocks invert the kernel/pseudo-kernel identification:
    ``rr = (Re k + Re kt)/2``, ``jj = (Re k - Re kt)/2``,
    ``jr = (Im k + Im kt)/2``, ``rj = (Im kt - Im k)/2``.
    """
    rr = (k.real + kt.real) / 2.0
    jj = (k.real - kt.real) / 2.0
    jr = (k.imag + kt.imag) / 2.0
    rj = (kt.imag - k.imag) / 2.0
    kc = np.block([[rr, rj], [jr, jj]])
    kc *= 2.0
    return kc


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
