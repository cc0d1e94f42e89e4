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
``core.ridge_solve``; a failed factorization rebuilds that system alone for
the jitter retry. Each fit keeps a :class:`FitInfo` on its model: the solve
path, ``h`` and the diagonal shift of each factorization. The training
residual then comes from the solved system itself: with shifts ``s1``
(``R``) and ``s2`` (``J``), ``y - f(X) = h (s1 Re(alpha/h) + j s2
Im(alpha/h))``, which is ``lam alpha`` unless the jitter retry ran, so no
kernel is evaluated again (:meth:`FitInfo.residual`). No path assembles or
solves a full matrix; the full-matrix oracles of ``fit_augmented``, the
Schur complement of the complex 2n x 2n augmented system and the
stacked-real system, are the tests'. ``fit_srkhs`` is the strictly-complex
fit ``alpha = (K + lam I)^-1 y``.

Predictions follow ``f(x*) = k(x*, X) alpha + ktilde(x*, X) conj(alpha)``,
evaluated by ``kernels.apply_pairs`` in blocks of rows of ``x*``, each a
rectangle against ``X``: ``sum_gamma G_gamma(x*, X) (a_gamma alpha + b_gamma
conj(alpha))`` for the sums of real Gaussians, which never form the Gram
pair, else the kernel Gram applied to ``alpha``. Models fitted on equal
inputs share one walk: each block's distances and each gamma's ``exp``. The
training inputs take the same blocks, so a prediction does not depend on
which array holds ``x*``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import ComplexDataset, as_samples, check_lam, from_pairs, is_int, ridge_solve, to_pairs
from .core import hermitian_solve  # not called here: perfbench/spans.py patches this name
from .kernels import KernelSpec, apply_pairs, kernel_from_config

__all__ = [
    "FitInfo",
    "WrkhsModel",
    "fit_augmented",
    "fit_srkhs",
    "predict",
    "mse_db",
    "model_to_json",
    "model_from_json",
]

# mse_db floor; exact-zero error reports this instead of -inf.
MSE_DB_FLOOR = -320.0


@dataclass(frozen=True)
class FitInfo:
    """What a batch fit solved.

    ``path`` is ``"srkhs"`` (the n x n solve of a null pseudo-kernel),
    ``"split"`` (the two real n x n solves of a phase-aligned pair) or ``"2n"``
    (one real 2n x 2n solve). ``h`` is the rotation of the real form, ``alpha
    = h (br + j bi)``, 1 on the ``srkhs`` path. ``shifts`` holds the diagonal
    shift each factorization used, in solve order: ``lam``, or ``lam`` plus
    the jitter ``1e-12 * trace/n`` after a retry.
    """

    path: str
    h: complex
    shifts: tuple[float, ...]

    def residual(self, alpha) -> np.ndarray:
        """The residual ``y - f(X)`` of the shifted system that was solved for
        ``alpha``, ``h (s1 Re(alpha/h) + j s2 Im(alpha/h))`` for the first and
        last shifts (the one shift of a single system): ``lam alpha`` without a
        jitter retry. It leaves out the solve's rounding, so at ``lam = 0`` it
        is exactly 0; ``y - predict(model, X)`` is the backward check."""
        b = np.asarray(alpha) / self.h
        return self.h * (self.shifts[0] * b.real + 1j * self.shifts[-1] * b.imag)


@dataclass(frozen=True)
class WrkhsModel:
    """A fitted model: training inputs, kernel spec, ridge weight, coefficients.

    The conjugate coefficient pair acting on the pseudo-kernel is implied:
    predictions use both ``alpha`` and ``conj(alpha)``. ``info`` is what the
    fit solved; it is not serialized, so a model read from JSON has none.
    """

    X: np.ndarray
    spec: KernelSpec
    lam: float
    alpha: np.ndarray
    info: FitInfo | None = field(default=None, compare=False)

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
    split = len(systems) == 2
    parts = [rhs.real, rhs.imag] if split else [np.concatenate([rhs.real, rhs.imag])]
    solved = [ridge_solve(systems.pop(0), lam, part, lambda k=k: spec._ridge_systems(x, k)[1][0])
              for k, part in enumerate(parts)]
    b = np.concatenate([sol for sol, _ in solved])
    alpha = h * (b[:n] + 1j * b[n:])
    info = FitInfo("split" if split else "2n", h, tuple(shift for _, shift in solved))
    return WrkhsModel(X=data.X, spec=spec, lam=lam, alpha=alpha, info=info)


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
    alpha, shift = ridge_solve(spec._gram(x, x), lam, data.y, lambda: spec._gram(x, x))
    return WrkhsModel(X=data.X, spec=spec, lam=lam, alpha=alpha,
                      info=FitInfo("srkhs", 1.0, (shift,)))


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
    """Inverse of :func:`model_to_json`. ``inputs.shape`` must be two integers
    ``>= 1`` (not bools) whose product is the number of ``inputs.values``
    pairs; any other raises ``ValueError`` naming it."""
    payload = json.loads(text)
    shape = payload["inputs"]["shape"]
    values = from_pairs(payload["inputs"]["values"], "inputs.values")
    if not (isinstance(shape, list) and len(shape) == 2 and all(is_int(k) and k >= 1 for k in shape)
            and shape[0] * shape[1] == values.size):
        raise ValueError(f"inputs.shape must be two integers >= 1 whose product is the number "
                         f"of inputs.values pairs ({values.size}), got {shape!r}")
    return WrkhsModel(
        X=values.reshape(shape),
        spec=kernel_from_config(payload["kernel"]),
        lam=payload["lambda"],
        alpha=from_pairs(payload["alpha"], "alpha"),
    )
