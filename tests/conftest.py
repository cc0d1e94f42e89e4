"""Shared helpers: random inputs, one representative spec per kernel family,
the full-matrix oracles of the batch fit, and the measuring tools the tests
apply to the library."""

import numpy as np
import pytest

from wrkhs import (
    ComplexDataset,
    ComplexGaussian,
    IndependentGaussian,
    KernelSpec,
    RealGaussian,
    RealImagBlocks,
    SeparateRealImag,
    SumOfSeparable,
    SyntheticConfig,
    WrkhsModel,
)
from wrkhs.core import as_samples, check_lam, hermitian_solve, unpacked


def random_inputs(rng, n, d, scale=1.5):
    return scale * (rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))


def kernel_value(spec, x, z) -> complex:
    """Scalar k(x, z) of two input vectors, each passed as one row."""
    return complex(spec.gram(np.atleast_2d(x), np.atleast_2d(z))[0, 0])


def pseudo_value(spec, x, z) -> complex:
    """Scalar ktilde(x, z) of two input vectors, each passed as one row."""
    return complex(spec.pseudo_gram(np.atleast_2d(x), np.atleast_2d(z))[0, 0])


def experiment1(seed=0, **overrides) -> SyntheticConfig:
    """The first synthetic benchmark at its paper settings."""
    return SyntheticConfig(experiment=1, seed=seed, **overrides)


def experiment2(seed=0, **overrides) -> SyntheticConfig:
    """The second synthetic benchmark at its paper settings, whose ridge
    weight is the one ``wrkhs bench synthetic2`` defaults to."""
    return SyntheticConfig(experiment=2, seed=seed, **{"lam": 0.32, **overrides})


def transform_matrix(n):
    """The 2n x 2n composite-to-augmented transform ``T = [[I, jI], [I, -jI]]``."""
    eye = np.eye(n)
    return np.block([[eye, 1j * eye], [eye, -1j * eye]])


def augmented_gram(spec, x):
    """The augmented kernel matrix ``[[K, Kt], [conj(Kt), conj(K)]]``."""
    k, kt = (np.asarray(m, dtype=np.complex128) for m in spec.pair(x))
    return np.block([[k, kt], [kt.conj(), k.conj()]])


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


def fit_composite(data, spec, lam) -> np.ndarray:
    """Composite-path oracle coefficients ``(K_com + lam I)^-1 [Re y; Im y]``
    (2n real): the stacked real/imaginary system assembled from the full pair."""
    kc = composite_matrix(*spec.pair(data.X))
    kc[np.diag_indices_from(kc)] += check_lam(lam)
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
    c, kt = (np.asarray(m, dtype=np.complex128) for m in spec.pair(data.X))
    c[np.diag_indices_from(c)] += lam
    # C^-* conj(Kt) = conj(C^-1 Kt); P is Hermitian up to rounding
    p = c - kt @ np.conj(hermitian_solve(c, kt))
    p = (p + p.conj().T) / 2.0
    u = hermitian_solve(p, y)  # P^-1 y;  P^-* conj(y) = conj(u)
    alpha = u - hermitian_solve(c, kt @ u.conj())
    return WrkhsModel(X=data.X, spec=spec, lam=lam, alpha=alpha)


def predict_composite(spec, x_train, alpha_com, x_star) -> np.ndarray:
    """Composite-path oracle prediction: the 2x-block matrix applied to [ar; aj]."""
    alpha_com = np.asarray(alpha_com, dtype=np.float64)
    kc = composite_matrix(*spec.pair(x_star, x_train))
    f_com = kc @ alpha_com
    m = f_com.shape[0] // 2
    return f_com[:m] + 1j * f_com[m:]


def ridge_systems(spec, x):
    """``(h, systems)`` of the real ridge systems a pseudo-kernel fit solves
    (``_ridge_systems``), each packed triangle unpacked into a full matrix."""
    h, systems = spec._ridge_systems(as_samples(x, "x"))
    return h, [unpacked(m) for m in systems]


def min_composite_eigenvalue(spec, x) -> float:
    """Smallest eigenvalue of the composite Gram matrix (PSD diagnostic)."""
    kc = composite_matrix(*spec.pair(x))
    return float(np.linalg.eigvalsh((kc + kc.T) / 2.0)[0])


def online_model(model) -> WrkhsModel:
    """The batch model over a ``Wrkls`` dictionary and its coefficients."""
    return WrkhsModel(X=model.dictionary, spec=model.spec, lam=model.lam, alpha=model.coefficients)


def zoo_specs():
    """One instance per family, valid (PSD composite) by construction."""
    g = RealGaussian(gamma=1.3)
    return {
        "real_gaussian": RealGaussian(gamma=0.8),
        "complex_gaussian": ComplexGaussian(gamma=60.0),
        "independent": IndependentGaussian(gamma=0.8),
        # separable B (x) g with B = [[1.0, 0.4], [0.4, 0.7]] (PD coefficients)
        "real_imag_blocks": RealImagBlocks(
            rr=RealGaussian(gamma=1.3, scale=1.0),
            jj=RealGaussian(gamma=1.3, scale=0.7),
            rj=RealGaussian(gamma=1.3, scale=0.4),
            jr=RealGaussian(gamma=1.3, scale=0.4),
        ),
        "separate_real_imag": SeparateRealImag(
            rr=RealGaussian(gamma=0.9), jj=RealGaussian(gamma=3.1)
        ),
        "sum_of_separable": SumOfSeparable(
            terms=((RealGaussian(gamma=2.0), 0.3), (RealGaussian(gamma=0.7), 0.6))
        ),
    }


def mixed_gamma_blocks():
    """A ``real_imag_blocks`` whose rr, jj and rj use different gammas.

    Its pseudo-kernel coefficients (rr - jj, and j 2 rj) point in different
    directions, so it has no phase and takes the composite solve. PSD: the
    cross gamma is the mean of the others and the cross scale is small.
    """
    cross = RealGaussian(gamma=2.0, scale=0.2)
    return RealImagBlocks(
        rr=RealGaussian(gamma=0.9, scale=1.0),
        jj=RealGaussian(gamma=3.1, scale=0.7),
        rj=cross,
        jr=cross,
    )


@pytest.fixture(scope="session")
def specs():
    return zoo_specs()
