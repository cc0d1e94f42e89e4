"""Kernel zoo: kernels, pseudo-kernels, and Gram-matrix builders.

Families
--------
``RealGaussian``
    Isotropic Gaussian of the complex difference,
    ``scale * exp(-(x - x')^H (x - x') / gamma)``. Real-valued, stationary,
    null pseudo-kernel. Also serves as the real-valued building block for
    the block-composed families below.
``ComplexGaussian``
    ``exp(-(x - conj(x'))^T (x - conj(x')) / gamma)`` -- note the plain
    transpose and the conjugate on the second argument only. Complex-valued,
    non-stationary, null pseudo-kernel. Its exponent can grow large and
    positive; evaluations are saturated at exp(700) with a warning.
``IndependentGaussian``
    Built from a real Gaussian ``kappa`` of *real* vectors applied to the
    real/imaginary parts:
    ``kappa(xr,xr') + kappa(xj,xj') + j(kappa(xr,xj') - kappa(xj,xr'))``.
    Null pseudo-kernel. One shared ``gamma`` for all four terms.
``RealImagBlocks``
    Four real-valued kernels of complex inputs (rr, jj, rj, jr) composed as
    kernel ``(rr + jj) + j(jr - rj)`` and pseudo-kernel
    ``(rr - jj) + j(jr + rj)``. Requires ``rj(x, x') == jr(x', x)``, which
    for these symmetric Gaussians means ``rj == jr`` (or both of zero
    scale); the kernel is then real.
``SeparateRealImag``
    Independent real and imaginary output parts with distinct real kernels:
    kernel ``rr + jj``, pseudo-kernel ``rr - jj``.
``SumOfSeparable``
    Mixed-effect design: kernel ``2 * sum_q k_q`` and pseudo-kernel
    ``2j * sum_q w_q k_q`` with real-valued ``k_q`` and weights in [0, 1).

The last three share one evaluator over a list of real Gaussian terms, each
with a kernel and a pseudo-kernel coefficient (the separable form). Such a
pair is *phase-aligned* when its kernel is real and its pseudo-kernel is
``p S`` for one unit ``p`` and a real ``S``; ``phase`` reports ``p`` (None
for every other spec) and ``split_grams`` builds the real ``(K + S, K - S)``
that split the widely-linear ridge system into two real solves.

Every family exposes ``pair`` (the kernel and pseudo-kernel Gram matrices
from one evaluation), ``gram``/``pseudo_gram``, ``diag`` (both at
``x' = x`` in O(n)) and scalar ``eval``/``pseudo``. Specs are immutable and
hashable; all evaluations are pure and thread-safe.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg.blas import daxpy

__all__ = [
    "KernelSpec",
    "RealGaussian",
    "ComplexGaussian",
    "IndependentGaussian",
    "RealImagBlocks",
    "SeparateRealImag",
    "SumOfSeparable",
    "KernelOverflowWarning",
    "augmented_gram",
    "composite_blocks",
    "composite_gram",
    "composite_matrix",
    "min_composite_eigenvalue",
    "validate_psd",
    "kernel_from_config",
]

# Largest exponent fed to exp() for the complex Gaussian before saturation.
EXP_SATURATION = 700.0


class KernelOverflowWarning(RuntimeWarning):
    """The complex Gaussian exponent exceeded the saturation threshold."""


def _as_inputs(x, name: str = "X") -> np.ndarray:
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be (n, d), got shape {arr.shape}")
    return arr


def _validated(x, z) -> tuple[np.ndarray, np.ndarray]:
    x = _as_inputs(x)
    z = x if z is None else _as_inputs(z, "Z")
    if x.shape[1] != z.shape[1]:
        raise ValueError(f"input dimension mismatch: {x.shape[1]} vs {z.shape[1]}")
    return x, z


def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances |a_i - b_j|^2 (complex rows ok)."""
    aa = np.sum(np.abs(a) ** 2, axis=1)[:, None]
    bb = np.sum(np.abs(b) ** 2, axis=1)[None, :]
    cross = np.real(a @ b.conj().T)
    return np.maximum(aa + bb - 2.0 * cross, 0.0)


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


def _check_gaussian(gamma, scale=1.0) -> None:
    """Reject a Gaussian whose ``gamma`` or ``scale`` is non-finite or out of range."""
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    if not (math.isfinite(scale) and scale >= 0):
        raise ValueError(f"scale must be finite and non-negative, got {scale}")


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

    def pseudo_gram(self, x, z=None) -> np.ndarray:
        """Pseudo-kernel Gram matrix with entries ``ktilde(x_i, z_j)``."""
        return self.pair(x, z)[1]

    def diag(self, x) -> tuple[np.ndarray, np.ndarray]:
        """``(k(x_i, x_i), ktilde(x_i, x_i))`` for each row, in O(n) memory."""
        x = _as_inputs(x)
        # every family but the complex Gaussian is stationary: k(x, x) = k(0, 0)
        zero = np.zeros((1, x.shape[1]), dtype=np.complex128)
        k, kt = self._pair(zero, zero)
        return np.full(x.shape[0], k[0, 0]), np.full(x.shape[0], kt[0, 0])

    def eval(self, x, xp) -> complex:
        """Scalar kernel evaluation k(x, x')."""
        return complex(self.gram(np.atleast_1d(x), np.atleast_1d(xp))[0, 0])

    def pseudo(self, x, xp) -> complex:
        """Scalar pseudo-kernel evaluation ktilde(x, x')."""
        return complex(self.pseudo_gram(np.atleast_1d(x), np.atleast_1d(xp))[0, 0])

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
        raise NotImplementedError

    def _pair(self, x, z) -> tuple[np.ndarray, np.ndarray]:
        return self._gram(x, z), np.zeros((x.shape[0], z.shape[0]))

    # -- serialization ------------------------------------------------------

    def to_config(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_config(config: dict) -> "KernelSpec":
        return kernel_from_config(config)


@dataclass(frozen=True)
class RealGaussian(KernelSpec):
    """``scale * exp(-|x - x'|^2 / gamma)`` on complex (or real) vectors."""

    gamma: float
    scale: float = 1.0
    family = "real_gaussian"

    def __post_init__(self):
        _check_gaussian(self.gamma, self.scale)

    def _gram(self, x, z):
        return self.scale * np.exp(-_sqdist(x, z) / self.gamma)

    @property
    def is_real_valued(self) -> bool:
        return True

    def to_config(self) -> dict:
        return {"family": self.family, "params": {"gamma": self.gamma, "scale": self.scale}}


@dataclass(frozen=True)
class ComplexGaussian(KernelSpec):
    """``exp(-(x - conj(x'))^T (x - conj(x')) / gamma)``.

    The exponent uses the plain transpose, not the conjugate transpose:
    real parts are compared through ``|xr - xr'|^2`` but imaginary parts
    through ``-|xj + xj'|^2``, so the value is complex and unbounded on the
    diagonal (``k(x, x) = exp(4 |xj|^2 / gamma)``).
    """

    gamma: float
    family = "complex_gaussian"

    def __post_init__(self):
        _check_gaussian(self.gamma)

    def _gram(self, x, z):
        # (x - z*)^T (x - z*) = sum x^2 + sum (z*)^2 - 2 x . z*
        sx = np.sum(x**2, axis=1)[:, None]
        sz = np.sum(z.conj() ** 2, axis=1)[None, :]
        cross = x @ z.conj().T
        expo = -(sx + sz - 2.0 * cross) / self.gamma
        return np.exp(_saturated(expo.real) + 1j * expo.imag)

    def diag(self, x):
        # x = x': the exponent is 4 |Im x|^2 / gamma, real
        x = _as_inputs(x)
        expo = 4.0 * np.sum(x.imag**2, axis=1) / self.gamma
        return np.exp(_saturated(expo)), np.zeros(x.shape[0])

    def to_config(self) -> dict:
        return {"family": self.family, "params": {"gamma": self.gamma}}


@dataclass(frozen=True)
class IndependentGaussian(KernelSpec):
    """Independent kernel: real Gaussian applied to real/imag part pairs.

    ``k(x,x') = kappa(xr,xr') + kappa(xj,xj') + j(kappa(xr,xj') - kappa(xj,xr'))``
    with ``kappa(u,v) = exp(-|u - v|^2 / gamma)`` on real vectors. The same
    ``gamma`` is shared by all four terms.
    """

    gamma: float
    family = "independent"

    def __post_init__(self):
        _check_gaussian(self.gamma)

    def _gram(self, x, z):
        def kap(a, b):
            return np.exp(-_sqdist(a, b) / self.gamma)

        xr, xj = x.real, x.imag
        zr, zj = z.real, z.imag
        return kap(xr, zr) + kap(xj, zj) + 1j * (kap(xr, zj) - kap(xj, zr))

    def to_config(self) -> dict:
        return {"family": self.family, "params": {"gamma": self.gamma}}


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

    def _combine(self, x, z, columns) -> list[np.ndarray]:
        """``sum_gamma c_gamma exp(-|x_i - z_j|^2 / gamma)`` for each column.

        A column holds one coefficient ``c_gamma`` per distinct gamma, in the
        order of :meth:`_coefficients`; its matrix is real unless one of them
        is complex. Each matrix is accumulated in place.
        """
        d2 = _sqdist(x, z)
        e = np.empty(d2.shape)  # one exp buffer for every gamma keeps the peak low
        out = [np.zeros(d2.shape, np.result_type(*col)) for col in columns]
        for gamma, cs in zip(self._coefficients(), zip(*columns)):
            if not any(cs):
                continue
            np.exp(np.divide(d2, -gamma, out=e), out=e)
            for m, c in zip(out, cs):
                if c != 0:
                    _accumulate(m, c, e)
        return out

    def _columns(self) -> list[tuple]:
        """The kernel and pseudo-kernel coefficient columns."""
        return list(zip(*self._coefficients().values()))

    def _gram(self, x, z):
        return self._combine(x, z, self._columns()[:1])[0]

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
        x = _as_inputs(x)
        return tuple(self._combine(x, x, [plus, minus]))

    def to_config(self) -> dict:
        return {
            "family": self.family,
            "params": {f.name: getattr(self, f.name).to_config()["params"] for f in fields(self)},
        }


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
    """Distinct real kernels for independent real and imaginary parts."""

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
        terms = tuple((kq, float(w)) for kq, w in self.terms)
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
        return {
            "family": self.family,
            "params": {
                "terms": [
                    {"weight": w, **kq.to_config()["params"]}
                    for kq, w in self.terms
                ]
            },
        }


# ---------------------------------------------------------------------------
# derived Gram structures
# ---------------------------------------------------------------------------


def augmented_gram(spec: KernelSpec, x, z=None) -> np.ndarray:
    """The augmented kernel matrix ``[[K, Kt], [conj(Kt), conj(K)]]``."""
    k, kt = (np.asarray(m, dtype=np.complex128) for m in spec.pair(x, z))
    return np.block([[k, kt], [kt.conj(), k.conj()]])


def composite_blocks(spec: KernelSpec, x_star, x) -> tuple[np.ndarray, ...]:
    """Recover the four real part-kernel blocks (rr, rj, jr, jj).

    Inverts the kernel/pseudo-kernel identification:
    ``rr = (Re k + Re kt)/2``, ``jj = (Re k - Re kt)/2``,
    ``jr = (Im k + Im kt)/2``, ``rj = (Im kt - Im k)/2``.
    The composite prediction matrix is 2x these blocks (see
    :func:`composite_gram`).
    """
    return _part_blocks(*spec.pair(x_star, x))


def _part_blocks(k: np.ndarray, kt: np.ndarray) -> tuple[np.ndarray, ...]:
    rr = (k.real + kt.real) / 2.0
    jj = (k.real - kt.real) / 2.0
    jr = (k.imag + kt.imag) / 2.0
    rj = (kt.imag - k.imag) / 2.0
    return rr, rj, jr, jj


def composite_gram(spec: KernelSpec, x_star, x) -> np.ndarray:
    """The real (2m, 2n) composite prediction matrix ``2 [[rr, rj], [jr, jj]]``."""
    return composite_matrix(*spec.pair(x_star, x))


def composite_matrix(k: np.ndarray, kt: np.ndarray) -> np.ndarray:
    """:func:`composite_gram` of an already evaluated Gram pair ``(K, Kt)``."""
    rr, rj, jr, jj = _part_blocks(k, kt)
    kc = np.block([[rr, rj], [jr, jj]])
    kc *= 2.0
    return kc


def min_composite_eigenvalue(spec: KernelSpec, x) -> float:
    """Smallest eigenvalue of the composite Gram matrix (PSD diagnostic)."""
    kc = composite_gram(spec, x, x)
    kc = (kc + kc.T) / 2.0
    return float(np.linalg.eigvalsh(kc)[0])


def validate_psd(spec: KernelSpec, x, tol: float = 1e-10) -> float:
    """Opt-in O(n^3) PSD check of the composite Gram matrix on samples ``x``.

    Returns the minimum eigenvalue; raises ``ValueError`` if it falls below
    ``-tol``.
    """
    lo = min_composite_eigenvalue(spec, x)
    if lo < -tol:
        raise ValueError(
            f"kernel/pseudo-kernel pair is not positive semidefinite on the "
            f"given samples (min eigenvalue {lo:.3e})"
        )
    return lo


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------


def _real_gaussian_from_params(params: dict) -> RealGaussian:
    return RealGaussian(
        gamma=float(params["gamma"]), scale=float(params.get("scale", 1.0))
    )


def kernel_from_config(config: dict) -> KernelSpec:
    """Build a kernel spec from its JSON object ``{"family": ..., "params": ...}``."""
    if not isinstance(config, dict) or "family" not in config:
        raise ValueError("kernel config must be an object with a 'family' field")
    family = config["family"]
    params = config.get("params", {})
    if family == RealGaussian.family:
        return _real_gaussian_from_params(params)
    for cls in (ComplexGaussian, IndependentGaussian):
        if family == cls.family:
            return cls(gamma=float(params["gamma"]))
    for cls in (RealImagBlocks, SeparateRealImag):
        if family == cls.family:
            return cls(**{f.name: _real_gaussian_from_params(params[f.name]) for f in fields(cls)})
    if family == SumOfSeparable.family:
        return SumOfSeparable(
            terms=tuple(
                (_real_gaussian_from_params(t), float(t["weight"]))
                for t in params["terms"]
            )
        )
    raise ValueError(f"unknown kernel family: {family!r}")

