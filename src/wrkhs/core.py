"""Composite/augmented representations of complex vectors and Hermitian solves.

A complex vector ``v`` of length n has two equivalent stacked representations
used throughout this package:

* **composite** -- the real vector ``[Re(v); Im(v)]`` of length 2n,
* **augmented** -- the complex vector ``[v; conj(v)]`` of length 2n.

They are connected by the transform ``T = [[I, jI], [I, -jI]]`` which
satisfies ``T T^H = T^H T = 2 I``, so ``T/sqrt(2)`` is unitary and the
inverse map is ``T^H / 2``.

All functions here are pure; arrays returned by dataset containers are
read-only and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "NumericalError",
    "ComplexDataset",
    "to_composite",
    "from_composite",
    "to_augmented",
    "composite_to_augmented",
    "augmented_to_composite",
    "transform_matrix",
    "hermitian_solve",
    "conjugate_solve",
]

# Max acceptable |A - A^H| entry before a matrix is rejected as non-Hermitian.
HERMITIAN_ATOL = 1e-12

# Rows per block of the |A - A^H| check, which bounds its temporaries to a
# few such blocks instead of full copies of A.
ASYMMETRY_BLOCK_ROWS = 256


class NumericalError(RuntimeError):
    """A linear solve or factorization failed (indefinite/singular system)."""


def as_complex_vector(v, name: str = "v") -> np.ndarray:
    """Validate and return ``v`` as a 1-D complex128 array."""
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    return arr


def as_real_vector(v, name: str = "v") -> np.ndarray:
    """Validate and return ``v`` as a 1-D float64 array (rejects complex)."""
    arr = np.asarray(v)
    if np.iscomplexobj(arr):
        if np.any(arr.imag != 0):
            raise ValueError(f"{name} must be real-valued")
        arr = arr.real
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    return arr


def to_composite(v) -> np.ndarray:
    """Stack a complex vector into its composite form ``[Re(v); Im(v)]``."""
    arr = as_complex_vector(v)
    return np.concatenate([arr.real, arr.imag])


def from_composite(vc) -> np.ndarray:
    """Rebuild the complex vector from a composite vector (exact round-trip)."""
    arr = as_real_vector(vc, "composite vector")
    if arr.size % 2 != 0:
        raise ValueError(f"composite vector must have even length, got {arr.size}")
    n = arr.size // 2
    return arr[:n] + 1j * arr[n:]


def to_augmented(v) -> np.ndarray:
    """Stack a complex vector into its augmented form ``[v; conj(v)]``."""
    arr = as_complex_vector(v)
    return np.concatenate([arr, arr.conj()])


def composite_to_augmented(vc) -> np.ndarray:
    """Apply ``T`` to a composite vector: ``[vr; vj] -> [vr + j vj; vr - j vj]``."""
    arr = as_real_vector(vc, "composite vector")
    if arr.size % 2 != 0:
        raise ValueError(f"composite vector must have even length, got {arr.size}")
    n = arr.size // 2
    head = arr[:n] + 1j * arr[n:]
    return np.concatenate([head, head.conj()])


def augmented_to_composite(va) -> np.ndarray:
    """Apply the inverse transform ``T^H / 2`` to an augmented vector."""
    arr = as_complex_vector(va, "augmented vector")
    if arr.size % 2 != 0:
        raise ValueError(f"augmented vector must have even length, got {arr.size}")
    n = arr.size // 2
    head, tail = arr[:n], arr[n:]
    return np.concatenate([(head + tail).real / 2.0, (head - tail).imag / 2.0])


def transform_matrix(n: int) -> np.ndarray:
    """The 2n x 2n composite-to-augmented transform ``T = [[I, jI], [I, -jI]]``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    eye = np.eye(n)
    return np.block([[eye, 1j * eye], [eye, -1j * eye]])


def hermitian_solve(a, b) -> np.ndarray:
    """Solve ``A X = B`` for Hermitian positive-definite ``A``.

    Uses a Cholesky factorization with a single jitter retry: if the
    factorization fails, ``1e-12 * trace(A)/n`` is added to the diagonal once
    before failing hard. Exactly diagonal matrices are solved by elementwise
    division (exact, no factorization error).

    Parameters
    ----------
    a : (n, n) array
        Hermitian positive-definite matrix (real symmetric also accepted).
    b : (n,) or (n, k) array
        Right-hand side(s); may be complex even when ``a`` is real.

    Raises
    ------
    ValueError
        If ``a`` is not square or its max asymmetry ``|A - A^H|`` exceeds
        ``1e-12``.
    NumericalError
        If the factorization fails even after the jitter retry.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    b = np.asarray(b)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"shape mismatch: A is {a.shape}, B is {b.shape}")
    asym = 0.0
    for i in range(0, a.shape[0], ASYMMETRY_BLOCK_ROWS):
        rows = slice(i, i + ASYMMETRY_BLOCK_ROWS)
        asym = max(asym, float(np.max(np.abs(a[rows] - a[:, rows].conj().T))))
    if asym > HERMITIAN_ATOL:
        raise ValueError(f"matrix is not Hermitian (max asymmetry {asym:.3e})")

    d = np.diagonal(a)
    if np.count_nonzero(a) == np.count_nonzero(d):
        # exactly diagonal
        if np.any(d.real <= 0) or np.any(d.imag != 0):
            raise NumericalError("diagonal matrix is not positive definite")
        d = d.real
        return b / (d[:, None] if b.ndim > 1 else d)

    real_a = not np.iscomplexobj(a)
    if real_a and np.iscomplexobj(b):
        # real SPD system with complex RHS: solve for both parts at once
        stacked = np.concatenate(
            [b.real.reshape(a.shape[0], -1), b.imag.reshape(a.shape[0], -1)], axis=1
        )
        sol = hermitian_solve(a, stacked)
        k = sol.shape[1] // 2
        out = sol[:, :k] + 1j * sol[:, k:]
        return out.reshape(b.shape)

    try:
        factor = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        n = a.shape[0]
        jitter = 1e-12 * np.trace(a).real / n
        try:
            factor = scipy.linalg.cho_factor(
                a + jitter * np.eye(n, dtype=a.dtype), lower=True, check_finite=False
            )
        except scipy.linalg.LinAlgError as exc:
            raise NumericalError(
                "Cholesky factorization failed; matrix appears indefinite"
            ) from exc
    return scipy.linalg.cho_solve(factor, b, check_finite=False)


def conjugate_solve(a, b) -> np.ndarray:
    """Solve ``conj(A) X = B`` for Hermitian positive-definite ``A``.

    Since ``conj(A) X = B`` iff ``A conj(X) = conj(B)``, this reuses the
    Hermitian solver without forming ``conj(A)``.
    """
    return np.conj(hermitian_solve(a, np.conj(b)))


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ComplexDataset:
    """n complex input vectors with n complex targets.

    ``X`` is an (n, d) complex matrix whose rows are samples; ``y`` holds the
    n complex targets. Arrays are copied and made read-only on construction;
    NaN or infinite entries are rejected.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.X, dtype=np.complex128)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2:
            raise ValueError(f"X must be 2-D (n, d), got shape {x.shape}")
        y = as_complex_vector(self.y, "y")
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"X has {x.shape[0]} rows but y has {y.shape[0]} entries"
            )
        if x.shape[0] < 1 or x.shape[1] < 1:
            raise ValueError("dataset needs n >= 1 samples and d >= 1 dimensions")
        for name, arr in (("X", x), ("y", y)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite values")
        object.__setattr__(self, "X", _readonly(x))
        object.__setattr__(self, "y", _readonly(y))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]
