"""Batch ridge regression with a kernel and a pseudo-kernel.

``fit_augmented`` solves ``(K + lam I) alpha + Kt conj(alpha) = y`` with the
cheapest exact solve the kernel spec's structure allows:

* a null pseudo-kernel -- the n x n solve of ``fit_srkhs``;
* a phase-aligned pair, real ``K`` and ``Kt = p S`` (``KernelSpec.phase``)
  -- the real n x n ``(K +- S + lam I)`` solved for the real and imaginary
  parts of ``alpha / (1 + p)`` on ``y / (1 + p)``;
* anything else -- the real 2n x 2n composite solve of ``fit_composite``.

``fit_composite`` (the stacked real/imaginary system) and ``fit_schur`` (the
Schur complement of the complex 2n x 2n augmented system) are the oracles
``fit_augmented`` is checked against.
``fit_srkhs`` is the strictly-complex fit ``alpha = (K + lam I)^-1 y``.

Predictions follow ``f(x*) = k(x*, X) alpha + ktilde(x*, X) conj(alpha)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import ComplexDataset, conjugate_solve, hermitian_solve, stacked_apply
from .kernels import KernelSpec, composite_gram, composite_matrix, kernel_from_config

__all__ = [
    "WrkhsModel",
    "fit_composite",
    "fit_schur",
    "fit_augmented",
    "fit_srkhs",
    "predict",
    "predict_composite",
    "mse_db",
    "model_to_json",
    "model_from_json",
]

# mse_db floor; exact-zero error reports this instead of -inf.
MSE_DB_FLOOR = -320.0


@dataclass(frozen=True)
class WrkhsModel:
    """A fitted model: training inputs, kernel spec, ridge weight, coefficients.

    The conjugate coefficient pair acting on the pseudo-kernel is implied:
    predictions use both ``alpha`` and ``conj(alpha)``.
    """

    X: np.ndarray
    spec: KernelSpec
    lam: float
    alpha: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.X, dtype=np.complex128)
        if x.ndim == 1:
            x = x[:, None]
        a = np.asarray(self.alpha, dtype=np.complex128)
        if a.ndim != 1 or a.shape[0] != x.shape[0]:
            raise ValueError("alpha must be a vector with one entry per sample")
        for name, arr in (("X", x), ("alpha", a)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite values")
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "lam", _check_lam(self.lam))
        object.__setattr__(self, "alpha", a)

    def predict(self, x_star) -> np.ndarray:
        return predict(self, x_star)


def _check_lam(lam: float) -> float:
    lam = float(lam)
    if not (lam >= 0 and math.isfinite(lam)):
        raise ValueError(f"ridge weight must be finite and >= 0, got {lam}")
    return lam


def _ridge(a: np.ndarray, lam: float) -> np.ndarray:
    """Overwrite ``a`` with ``(a + a^H)/2 + lam I`` and return it."""
    a += a.conj().T
    a /= 2.0
    a[np.diag_indices_from(a)] += lam
    return a


def _composite_solve(k: np.ndarray, kt: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    kc = _ridge(composite_matrix(k, kt), lam)
    return hermitian_solve(kc, np.concatenate([y.real, y.imag]))


def fit_composite(data: ComplexDataset, spec: KernelSpec, lam: float) -> np.ndarray:
    """Composite-path coefficients ``(K_com + lam I)^-1 [Re y; Im y]`` (2n real)."""
    lam = _check_lam(lam)
    return _composite_solve(*spec.pair(data.X), data.y, lam)


def fit_schur(data: ComplexDataset, spec: KernelSpec, lam: float) -> WrkhsModel:
    """Schur-complement oracle for :func:`fit_augmented`.

    Eliminates ``conj(alpha)`` from the complex 2n x 2n augmented system:
    with ``C = K + lam I`` and ``P = C - Kt C^-* conj(Kt)``, ``alpha`` solves
    ``P alpha = y - Kt C^-* conj(y)``. A null pseudo-kernel is not routed to
    :func:`fit_srkhs`.
    """
    lam = _check_lam(lam)
    y = data.y
    k, kt = (np.asarray(m, dtype=np.complex128) for m in spec.pair(data.X))
    kt = (kt + kt.T) / 2.0
    c = _ridge(k, lam)
    p = _ridge(c - kt @ conjugate_solve(c, kt.conj()), 0.0)
    u = hermitian_solve(p, y)  # P^-1 y;  P^-* conj(y) = conj(u)
    alpha = u - hermitian_solve(c, kt @ u.conj())
    return WrkhsModel(X=data.X, spec=spec, lam=lam, alpha=alpha)


def fit_augmented(data: ComplexDataset, spec: KernelSpec, lam: float) -> WrkhsModel:
    """Fit the widely-linear ridge system; returns the n complex coefficients.

    The solve is chosen from the structure of ``spec`` (see the module
    docstring); each system goes through :func:`hermitian_solve`, so an
    indefinite one raises :class:`~wrkhs.core.NumericalError`.
    """
    lam = _check_lam(lam)
    if spec.has_null_pseudo:
        return fit_srkhs(data, spec, lam)
    p = spec.phase
    if p is not None:
        h = 1 + p
        rhs = data.y / h
        plus, minus = spec.split_grams(data.X)
        br = hermitian_solve(_ridge(plus, lam), rhs.real)
        bi = hermitian_solve(_ridge(minus, lam), rhs.imag)
        alpha = h * (br + 1j * bi)
    else:
        a = _composite_solve(*spec.pair(data.X), data.y, lam)
        alpha = a[: data.n] + 1j * a[data.n :]
    return WrkhsModel(X=data.X, spec=spec, lam=lam, alpha=alpha)


def fit_srkhs(data: ComplexDataset, spec: KernelSpec, lam: float) -> WrkhsModel:
    """Strictly-complex fit ``alpha = (K + lam I)^-1 y``.

    Refused for specs whose pseudo-kernel is not identically zero; those
    callers must use :func:`fit_augmented`.
    """
    lam = _check_lam(lam)
    if not spec.has_null_pseudo:
        raise ValueError(
            "fit_srkhs requires a null pseudo-kernel; use fit_augmented for "
            f"family {spec.family!r}"
        )
    alpha = hermitian_solve(_ridge(spec.gram(data.X), lam), data.y)
    return WrkhsModel(X=data.X, spec=spec, lam=lam, alpha=alpha)


def predict(model: WrkhsModel, x_star) -> np.ndarray:
    """Evaluate ``k(x*, X) alpha + ktilde(x*, X) conj(alpha)`` row-wise."""
    if not np.isfinite(np.asarray(x_star, dtype=np.complex128)).all():
        raise ValueError("x_star contains non-finite values")
    # a real Gram is applied by one real GEMM on [Re alpha, Im alpha]
    alpha = model.alpha
    if model.spec.has_null_pseudo:
        return stacked_apply(np.matmul, model.spec.gram(x_star, model.X), alpha)
    ks, kts = model.spec.pair(x_star, model.X)
    return stacked_apply(np.matmul, ks, alpha) + stacked_apply(np.matmul, kts, alpha.conj())


def predict_composite(
    spec: KernelSpec, x_train, alpha_com: np.ndarray, x_star
) -> np.ndarray:
    """Composite-path prediction: the 2x-block matrix applied to [ar; aj]."""
    alpha_com = np.asarray(alpha_com, dtype=np.float64)
    kc = composite_gram(spec, x_star, x_train)
    f_com = kc @ alpha_com
    m = f_com.shape[0] // 2
    return f_com[:m] + 1j * f_com[m:]


def mse_db(pred, truth) -> float:
    """Mean squared error in dB, floored at -320 (exact matches included)."""
    pred = np.asarray(pred, dtype=np.complex128).ravel()
    truth = np.asarray(truth, dtype=np.complex128).ravel()
    if pred.shape != truth.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise ValueError("mse_db needs at least one sample")
    mse = float(np.mean(np.abs(pred - truth) ** 2))
    if mse <= 10.0**(MSE_DB_FLOOR / 10.0):
        return MSE_DB_FLOOR
    return float(10.0 * np.log10(mse))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _complex_pairs(arr: np.ndarray):
    return [[float(v.real), float(v.imag)] for v in np.asarray(arr).ravel()]


def model_to_json(model: WrkhsModel) -> str:
    n, d = model.X.shape
    payload = {
        "kernel": model.spec.to_config(),
        "lambda": model.lam,
        "inputs": {
            "shape": [n, d],
            "values": _complex_pairs(model.X),
        },
        "alpha": _complex_pairs(model.alpha),
    }
    return json.dumps(payload, sort_keys=True)


def model_from_json(text: str) -> WrkhsModel:
    payload = json.loads(text)
    spec = kernel_from_config(payload["kernel"])
    n, d = payload["inputs"]["shape"]
    flat = np.array(
        [complex(re, im) for re, im in payload["inputs"]["values"]],
        dtype=np.complex128,
    )
    alpha = np.array(
        [complex(re, im) for re, im in payload["alpha"]], dtype=np.complex128
    )
    return WrkhsModel(
        X=flat.reshape(n, d), spec=spec, lam=float(payload["lambda"]), alpha=alpha
    )
