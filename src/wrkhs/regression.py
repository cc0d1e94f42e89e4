"""Batch ridge regression with a kernel and a pseudo-kernel.

Three algebraically equivalent fit paths are provided:

* ``fit_composite`` -- solves the real 2n x 2n system built from the
  composite (stacked real/imaginary) representation. Kept as the brute-force
  oracle the other paths are checked against.
* ``fit_augmented`` -- the default: solves the complex 2n x 2n augmented
  system ``(Kbar + lam I) abar = [y; conj(y)]`` directly, or equivalently via
  the Schur complement (``method="schur"``) which only factors n x n blocks.
* ``fit_srkhs`` -- the strictly-complex special case for null pseudo-kernels,
  ``alpha = (K + lam I)^-1 y``.

Predictions follow ``f(x*) = k(x*, X) alpha + ktilde(x*, X) conj(alpha)``.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .core import ComplexDataset, NumericalError, conjugate_solve, hermitian_solve
from .kernels import KernelSpec, augmented_gram, composite_gram, kernel_from_config

__all__ = [
    "WrkhsModel",
    "fit_composite",
    "fit_augmented",
    "fit_srkhs",
    "predict",
    "predict_composite",
    "mse_db",
    "model_to_json",
    "model_from_json",
]

logger = logging.getLogger(__name__)

# Max |head - conj(tail)| tolerated in an augmented solution before erroring.
CONJUGATE_SYMMETRY_TOL = 1e-6

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
        if not np.all(np.isfinite(a.view(np.float64))):
            raise ValueError("alpha contains non-finite values")
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "alpha", a)

    def predict(self, x_star) -> np.ndarray:
        return predict(self, x_star)


def _check_lam(lam: float) -> float:
    lam = float(lam)
    if lam < 0:
        raise ValueError(f"ridge weight must be >= 0, got {lam}")
    return lam


def _hermitized(k: np.ndarray) -> np.ndarray:
    h = k + k.conj().T
    h /= 2.0
    return h


def fit_composite(data: ComplexDataset, spec: KernelSpec, lam: float) -> np.ndarray:
    """Composite-path coefficients ``(K_com + lam I)^-1 [Re y; Im y]`` (2n real)."""
    lam = _check_lam(lam)
    kc = composite_gram(spec, data.X, data.X)
    kc = (kc + kc.T) / 2.0
    a = kc + lam * np.eye(2 * data.n)
    y_com = np.concatenate([data.y.real, data.y.imag])
    return hermitian_solve(a, y_com)


def fit_augmented(
    data: ComplexDataset, spec: KernelSpec, lam: float, method: str = "direct"
) -> WrkhsModel:
    """Fit through the augmented system; returns the n complex coefficients.

    ``method="direct"`` solves the full 2n x 2n Hermitian system;
    ``method="schur"`` uses the matrix-inversion-lemma form with
    ``C = K + lam I`` and ``P = C - Kt C^-* conj(Kt)``. Both enforce the
    conjugate structure of the augmented solution; a head/tail discrepancy
    above 1e-6 raises :class:`NumericalError`.
    """
    lam = _check_lam(lam)
    if method not in ("direct", "schur"):
        raise ValueError(f"unknown method {method!r}")
    n = data.n
    if method == "direct":
        a = _hermitized(augmented_gram(spec, data.X))
        a[np.diag_indices(2 * n)] += lam
        abar = hermitian_solve(a, np.concatenate([data.y, data.y.conj()]))
        head, tail = abar[:n], abar[n:]
        discrepancy = float(np.max(np.abs(head - tail.conj())))
        if discrepancy > CONJUGATE_SYMMETRY_TOL:
            raise NumericalError(
                f"augmented solution lost conjugate symmetry ({discrepancy:.3e})"
            )
        if discrepancy > 0:
            logger.debug("augmented conjugate-symmetry discrepancy: %.3e", discrepancy)
        alpha = (head + tail.conj()) / 2.0
    else:
        k, kt = (np.asarray(m, dtype=np.complex128) for m in spec.pair(data.X))
        k = _hermitized(k)
        kt = (kt + kt.T) / 2.0
        c = k + lam * np.eye(n)
        # P = C - Kt C^-* conj(Kt)
        p = c - kt @ conjugate_solve(c, kt.conj())
        p = _hermitized(p)
        u = hermitian_solve(p, data.y)  # P^-1 y;  P^-* conj(y) = conj(u)
        alpha = u - hermitian_solve(c, kt @ u.conj())

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
    k = _hermitized(spec.gram(data.X))
    alpha = hermitian_solve(k + lam * np.eye(data.n), data.y)
    return WrkhsModel(X=data.X, spec=spec, lam=lam, alpha=alpha)


def predict(model: WrkhsModel, x_star) -> np.ndarray:
    """Evaluate ``k(x*, X) alpha + ktilde(x*, X) conj(alpha)`` row-wise."""
    if model.spec.has_null_pseudo:
        out = model.spec.gram(x_star, model.X) @ model.alpha
    else:
        ks, kts = model.spec.pair(x_star, model.X)
        out = ks @ model.alpha + kts @ model.alpha.conj()
    return np.asarray(out, dtype=np.complex128)


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
