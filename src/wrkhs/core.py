"""The complex dataset container, input checks and Hermitian solves.

``as_samples`` is the one rule for sample matrices: datasets, models, kernel
evaluations (hence predictions) and the streaming ridge shape and check their
inputs through it. ``as_sample`` is its rule for one sample, which the online
recursion observes. ``check_lam`` checks every ridge weight, ``as_float``
reads every other number of a config or JSON file, and ``to_pairs``/
``from_pairs`` carry every complex value through JSON as ``[re, im]``.

``store_as_annotated`` is the one rule for config fields: each config
dataclass calls it first in ``__post_init__`` to store every field as its
annotation says, so equal configs serialize, and hash, equally.

``hermitian_factor`` is the one factorization of the package: a Cholesky
with one jitter retry. ``hermitian_solve``, the one linear solve, factors
through it once ``A`` is Hermitian to ``HERMITIAN_ATOL``. The kernels build
every Gram exactly Hermitian, so ``ridge_shift`` only adds to its diagonal.
``stacked_apply`` lets a real matrix act on a complex right-hand side as one
real call on its stacked real and imaginary parts, so the matrix is never
copied to complex.

All functions here are pure; arrays returned by dataset containers are
read-only and safe to share across threads.
"""

from __future__ import annotations

import inspect
import itertools
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

__all__ = [
    "NumericalError",
    "ComplexDataset",
    "as_samples",
    "as_sample",
    "check_lam",
    "as_float",
    "to_pairs",
    "from_pairs",
    "check_seed",
    "store_as_annotated",
    "is_int",
    "ridge_shift",
    "hermitian_factor",
    "hermitian_solve",
]

# Max acceptable |A - A^H| entry before a matrix is rejected as non-Hermitian.
HERMITIAN_ATOL = 1e-12

# Rows per block of the |A - A^H| check and of the norm adds of a symmetric
# distance matrix (``kernels._sqdist``): a temporary is one block, not a copy.
ASYMMETRY_BLOCK_ROWS = 256


class NumericalError(RuntimeError):
    """A linear solve or factorization failed (indefinite/singular system)."""


def as_samples(x, name: str) -> np.ndarray:
    """``x`` as an (n, d) complex128 matrix whose rows are samples.

    A 1-D input is n scalar samples. Any other shape that is not 2-D, or a
    NaN or infinite entry, raises ``ValueError`` naming ``name``.
    """
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be (n, d) or (n,), got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def as_sample(x, name: str) -> np.ndarray:
    """``x`` as one sample, a (1, d) complex128 row with ``d >= 1``.

    A 0-d, (d,) or (1, d) input is one sample. Any other shape, or a NaN or
    infinite entry, raises ``ValueError`` naming ``name``.
    """
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim < 2:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[0] != 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must be one sample: 0-d, (d,) or (1, d), got {np.shape(x)}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def check_lam(lam) -> float:
    """The ridge weight as a float, rejected unless finite and ``>= 0``."""
    lam = as_float(lam, "ridge weight")
    if not (lam >= 0 and math.isfinite(lam)):
        raise ValueError(f"ridge weight must be finite and >= 0, got {lam}")
    return lam


def as_float(value, name: str) -> float:
    """A config or JSON number (or numeric string) as a float; a bool is not one."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{name} must be a number, got {value!r}")


def to_pairs(value) -> list:
    """A complex scalar as ``[re, im]``, a sequence or 1-D array of them as a
    list of such pairs, every part a Python float."""
    return np.array(value, dtype=np.complex128)[..., None].view(np.float64).tolist()


def from_pairs(value, name: str) -> np.ndarray:
    """Inverse of :func:`to_pairs` (one pair gives a 0-d array), bit-exact, sign of zero
    included. A ragged list, an entry that is not a pair, a string or a bool
    raises ``ValueError`` naming ``name``."""
    try:
        arr = np.asarray(value)
    except ValueError:
        arr = np.asarray(None)
    if (arr.dtype.kind not in "iuf" or arr.ndim not in (1, 2) or arr.shape[-1] != 2
            # numpy reads a bool among numbers as one; the entries' types show it
            or bool in set(map(type, itertools.chain.from_iterable(value) if arr.ndim == 2
                                     else value))):
        raise ValueError(f"{name} must be an [re, im] pair of numbers or a list of them")
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.complex128)[..., 0]


def is_int(value) -> bool:
    """True for an integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def store_as_annotated(config) -> None:
    """Store each field of the frozen dataclass ``config`` as its annotation says.

    ``int`` holds an integer, never a float or a bool (``int | None`` may
    hold None too); ``float`` is stored as :func:`as_float` of the value;
    ``complex`` and ``tuple[complex, complex]`` take a Python number or a
    tuple of them, or ``[re, im]`` pairs read by :func:`from_pairs`, and the
    count must match. Other fields are left alone.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        kind = f.type if isinstance(f.type, str) else inspect.formatannotation(f.type)
        if kind in ("int", "int | None") and (value is not None or kind == "int"):
            if not is_int(value):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            value = int(value)
        elif kind == "float":
            value = as_float(value, f.name)
        elif kind in ("complex", "tuple[complex, complex]"):
            value = _as_complex(value, f.name, () if kind == "complex" else (2,))
        object.__setattr__(config, f.name, value)


def _as_complex(value, name: str, shape: tuple):
    """A complex number (``shape == ()``) or a tuple of ``shape[0]`` of them."""
    native = isinstance(value, (numbers.Number, tuple)) and not isinstance(value, bool)
    arr = np.asarray(value, dtype=np.complex128) if native else from_pairs(value, name)
    if arr.shape != shape:
        what = f"a list of {shape[0]} [re, im] pairs" if shape else "one [re, im] pair"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return tuple(arr.tolist()) if shape else complex(arr)


def check_seed(seed, name: str = "seed", count: int = 1) -> None:
    """Reject a seed that is not an integer or whose ``count`` consecutive
    generator keys ``seed .. seed + count - 1`` leave ``[0, 2**64)``."""
    if not (is_int(seed) and 0 <= seed <= 2**64 - count):
        raise ValueError(f"{name} must be an integer in [0, 2**64 - {count}], got {seed!r}")


def ridge_shift(a: np.ndarray, lam: float) -> np.ndarray:
    """Add ``lam`` to the diagonal of ``a`` in place and return it.

    A Gram matrix comes exactly Hermitian from the kernels, so nothing is
    symmetrized here; :func:`hermitian_solve` still checks it.
    """
    a[np.diag_indices_from(a)] += lam
    return a


def hermitian_solve(a, b) -> np.ndarray:
    """Solve ``A X = B`` for a Hermitian positive-definite (n, n) ``A`` (real
    symmetric too) and an (n,) or (n, k) ``B``, complex even when ``A`` is real.

    Factors ``A`` by :func:`hermitian_factor` (one jitter retry, then
    :class:`NumericalError`). Exactly diagonal matrices are solved by
    elementwise division (exact, no factorization error). A non-square ``A``,
    or one whose max asymmetry ``|A - A^H|`` exceeds ``1e-12``, raises
    ``ValueError``.
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

    return stacked_apply(lambda low, rhs: cho_solve((low, True), rhs, check_finite=False),
                         hermitian_factor(a), b)


def hermitian_factor(a: np.ndarray) -> np.ndarray:
    """The Cholesky factor ``L`` of ``A = L L^H`` for an (n, n) ``A`` the caller
    vouches is Hermitian, in the lower triangle of a new array; its strict upper
    triangle is not zeroed, and no solve reads it. On failure ``1e-12 * trace(A)/n``
    is added to the diagonal of a copy once, then :class:`NumericalError` is raised."""
    try:
        return cho_factor(a, lower=True, check_finite=False)[0]
    except LinAlgError:
        a = ridge_shift(a.copy(), 1e-12 * np.trace(a).real / a.shape[0])
    try:
        return cho_factor(a, lower=True, overwrite_a=True, check_finite=False)[0]
    except LinAlgError as exc:
        raise NumericalError("Cholesky factorization failed; matrix appears indefinite") from exc


def stacked_apply(fn, a: np.ndarray, b) -> np.ndarray:
    """``fn(a, b)`` for an ``fn`` linear in the rows of ``b``.

    A real ``a`` with a complex ``b`` takes one call on the real and imaginary
    parts of ``b`` stacked as columns, so ``a`` is never copied to complex.
    """
    b = np.asarray(b)
    if np.iscomplexobj(a) or not np.iscomplexobj(b):
        return fn(a, b)
    n = b.shape[0]
    sol = fn(a, np.concatenate([b.real.reshape(n, -1), b.imag.reshape(n, -1)], axis=1))
    k = sol.shape[1] // 2
    return (sol[:, :k] + 1j * sol[:, k:]).reshape(sol.shape[:1] + b.shape[1:])


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ComplexDataset:
    """n complex input vectors with n complex targets.

    ``X`` is an (n, d) complex matrix whose rows are samples (a 1-D ``X`` is
    n scalar samples, see :func:`as_samples`); ``y`` holds the n complex
    targets. Arrays are copied and made read-only on construction;
    NaN or infinite entries are rejected.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = as_samples(self.X, "X")
        y = np.asarray(self.y, dtype=np.complex128)
        if y.ndim != 1:
            raise ValueError(f"y must be 1-D, got shape {y.shape}")
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"X has {x.shape[0]} rows but y has {y.shape[0]} entries"
            )
        if x.shape[0] < 1 or x.shape[1] < 1:
            raise ValueError("dataset needs n >= 1 samples and d >= 1 dimensions")
        if not np.isfinite(y).all():
            raise ValueError("y contains non-finite values")
        object.__setattr__(self, "X", _readonly(x))
        object.__setattr__(self, "y", _readonly(y))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]
