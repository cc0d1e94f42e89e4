"""Batch ridge regression with a kernel and a pseudo-kernel.

``fit_augmented`` solves ``(K + lam I) alpha + Kt conj(alpha) = y`` with the
cheapest exact solve the kernel spec's structure allows:

* a null pseudo-kernel -- the n x n solve of ``fit_srkhs``;
* any other pair -- its real form ``[[R, C], [C, J]] [br; bi] = [Re y/h;
  Im y/h]`` with ``alpha = h (br + j bi)`` (``KernelSpec._ridge_systems``):
  for a phase-aligned pair, real ``K`` and ``Kt = p S``
  (``KernelSpec.phase``), ``h = 1 + p`` and ``C = 0``, so two real n x n
  solves of ``K +- S + lam I``; for any other, ``h = 2`` and one real
  2n x 2n solve.

Each system is the packed triangle the kernels build (``KernelSpec._gram(x,
x)``, ``_ridge_systems``), shifted and factored in its own buffer by
``core.ridge_solve``; a failed factorization rebuilds it for the jitter
retry. ``fit_composite`` (the stacked real/imaginary system assembled from
the full pair) and ``fit_schur`` (the Schur complement of the complex
2n x 2n augmented system) are the oracles ``fit_augmented`` is checked
against; they solve full matrices by ``core.hermitian_solve``. ``fit_srkhs``
is the strictly-complex fit ``alpha = (K + lam I)^-1 y``.

Predictions follow ``f(x*) = k(x*, X) alpha + ktilde(x*, X) conj(alpha)``,
evaluated by ``kernels.apply_pairs`` in blocks of rows of ``x*``, each a
rectangle against ``X``: ``sum_gamma G_gamma(x*, X) (a_gamma alpha + b_gamma
conj(alpha))`` for the sums of real Gaussians, which never form the Gram
pair, else the kernel Gram applied to ``alpha``. Models fitted on equal
inputs share one walk: each block's distances and each gamma's ``exp``. The
training inputs take the same blocks, so a prediction does not depend on
which array holds ``x*``. ``predict_composite`` is the composite-path oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import (ComplexDataset, as_samples, check_lam, from_pairs, hermitian_solve,
                   ridge_shift, ridge_solve, to_pairs)
from .kernels import KernelSpec, apply_pairs, composite_matrix, kernel_from_config

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
        x = as_samples(self.X, "X")
        a = np.asarray(self.alpha, dtype=np.complex128)
        if a.ndim != 1 or a.shape[0] != x.shape[0]:
            raise ValueError("alpha must be a vector with one entry per sample")
        if not np.isfinite(a).all():
            raise ValueError("alpha contains non-finite values")
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "lam", check_lam(self.lam))
        object.__setattr__(self, "alpha", a)


def fit_composite(data: ComplexDataset, spec: KernelSpec, lam: float) -> np.ndarray:
    """Composite-path coefficients ``(K_com + lam I)^-1 [Re y; Im y]`` (2n real)."""
    kc = ridge_shift(composite_matrix(*spec.pair(data.X)), check_lam(lam))
    return hermitian_solve(kc, np.concatenate([data.y.real, data.y.imag]))


def fit_schur(data: ComplexDataset, spec: KernelSpec, lam: float) -> WrkhsModel:
    """Schur-complement oracle for :func:`fit_augmented`.

    Eliminates ``conj(alpha)`` from the complex 2n x 2n augmented system:
    with ``C = K + lam I`` and ``P = C - Kt C^-* conj(Kt)``, ``alpha`` solves
    ``P alpha = y - Kt C^-* conj(y)``. A null pseudo-kernel is not routed to
    :func:`fit_srkhs`.
    """
    lam = check_lam(lam)
    y = data.y
    k, kt = (np.asarray(m, dtype=np.complex128) for m in spec.pair(data.X))
    c = ridge_shift(k, lam)
    # C^-* conj(Kt) = conj(C^-1 Kt); P is Hermitian up to rounding
    p = c - kt @ np.conj(hermitian_solve(c, kt))
    p = (p + p.conj().T) / 2.0
    u = hermitian_solve(p, y)  # P^-1 y;  P^-* conj(y) = conj(u)
    alpha = u - hermitian_solve(c, kt @ u.conj())
    return WrkhsModel(X=data.X, spec=spec, lam=lam, alpha=alpha)


def fit_augmented(data: ComplexDataset, spec: KernelSpec, lam: float) -> WrkhsModel:
    """Fit the widely-linear ridge system; returns the n complex coefficients.

    The solve is chosen from the structure of ``spec`` (see the module
    docstring); an indefinite system raises
    :class:`~wrkhs.core.NumericalError`.
    """
    if spec.has_null_pseudo:
        return fit_srkhs(data, spec, lam)
    lam = check_lam(lam)
    x, n = data.X, data.n
    h, systems = spec._ridge_systems(x)
    rhs = data.y / h
    parts = [rhs.real, rhs.imag] if len(systems) == 2 else [np.concatenate([rhs.real, rhs.imag])]
    b = np.concatenate([ridge_solve(systems.pop(0), lam, part,
                                    lambda k=k: spec._ridge_systems(x)[1][k])
                        for k, part in enumerate(parts)])
    alpha = h * (b[:n] + 1j * b[n:])
    return WrkhsModel(X=data.X, spec=spec, lam=lam, alpha=alpha)


def fit_srkhs(data: ComplexDataset, spec: KernelSpec, lam: float) -> WrkhsModel:
    """Strictly-complex fit ``alpha = (K + lam I)^-1 y``.

    Refused for specs whose pseudo-kernel is not identically zero; those
    callers must use :func:`fit_augmented`.
    """
    lam = check_lam(lam)
    if not spec.has_null_pseudo:
        raise ValueError(
            "fit_srkhs requires a null pseudo-kernel; use fit_augmented for "
            f"family {spec.family!r}"
        )
    x = data.X
    alpha = ridge_solve(spec._gram(x, x), lam, data.y, lambda: spec._gram(x, x))
    return WrkhsModel(X=data.X, spec=spec, lam=lam, alpha=alpha)


def predict(model: WrkhsModel | tuple[WrkhsModel, ...], x_star):
    """Evaluate ``k(x*, X) alpha + ktilde(x*, X) conj(alpha)`` row-wise.

    ``x_star`` follows the kernels' input rule, so a 1-D ``x_star`` is n
    scalar samples. A tuple of models fitted on equal training inputs gives
    the tuple of their predictions, from one walk; any other raises
    ``ValueError``.
    """
    models = model if isinstance(model, tuple) else (model,)
    if not models or not all(isinstance(m, WrkhsModel) and np.array_equal(m.X, models[0].X)
                             for m in models):
        raise ValueError("predict takes a model or a tuple of models on equal training inputs")
    preds = apply_pairs(x_star, models[0].X, [(m.spec, m.alpha) for m in models])
    return tuple(preds) if isinstance(model, tuple) else preds[0]


def predict_composite(
    spec: KernelSpec, x_train, alpha_com: np.ndarray, x_star
) -> np.ndarray:
    """Composite-path prediction: the 2x-block matrix applied to [ar; aj]."""
    alpha_com = np.asarray(alpha_com, dtype=np.float64)
    kc = composite_matrix(*spec.pair(x_star, x_train))
    f_com = kc @ alpha_com
    m = f_com.shape[0] // 2
    return f_com[:m] + 1j * f_com[m:]


def mse_db(pred, truth) -> float:
    """Mean squared error in dB, floored at -320 (exact matches included)."""
    pred = np.asarray(pred, dtype=np.complex128).ravel()
    truth = np.asarray(truth, dtype=np.complex128).ravel()
    if pred.shape != truth.shape:
        raise ValueError(f"pred and truth differ in length: {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise ValueError("mse_db needs at least one sample")
    mse = float(np.mean(np.abs(pred - truth) ** 2))
    if mse <= 10.0**(MSE_DB_FLOOR / 10.0):
        return MSE_DB_FLOOR
    return float(10.0 * np.log10(mse))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def model_to_json(model: WrkhsModel) -> str:
    n, d = model.X.shape
    payload = {
        "kernel": model.spec.to_config(),
        "lambda": model.lam,
        "inputs": {"shape": [n, d], "values": to_pairs(model.X.ravel())},
        "alpha": to_pairs(model.alpha),
    }
    return json.dumps(payload, sort_keys=True)


def model_from_json(text: str) -> WrkhsModel:
    payload = json.loads(text)
    n, d = payload["inputs"]["shape"]
    return WrkhsModel(
        X=from_pairs(payload["inputs"]["values"], "inputs.values").reshape(n, d),
        spec=kernel_from_config(payload["kernel"]),
        lam=payload["lambda"],
        alpha=from_pairs(payload["alpha"], "alpha"),
    )
