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

One Cholesky call factors every matrix of the package, in place in an
F-ordered buffer, reading only its lower triangle. A failed factorization
takes one jitter retry, ``1e-12 * trace/n`` on the diagonal of the matrix
built afresh after the partly factored buffer is dropped. ``ridge_solve``
and ``ridge_factor`` take a Gram as the kernels hand it over, a lower
triangle (``kernels.KernelSpec._gram(x, x)``): the batch fits and the
streaming ridge build, shift and factor each system in one buffer.
``ridge_shift`` only adds to the diagonal. ``hermitian_solve`` is the
full-matrix form, for the oracle fits (``fit_composite``, ``fit_schur``) and
the budgeted recursion's rebuild, which assemble full matrices: it checks
that ``A`` is Hermitian to ``HERMITIAN_ATOL`` and solves a copy in place. An
exactly diagonal system is solved by elementwise division. ``mirror_lower``
is the one mirror of such a lower triangle into the upper one, Hermitian or
symmetric, in place, for the public Grams, the ``C`` block of a ridge system
and the recursion's residual check. ``stacked_apply`` lets a real matrix act
on a complex right-hand side as one real call on its stacked real and
imaginary parts, so the matrix is never copied to complex.

All functions here but ``ridge_shift``, ``ridge_solve``, ``ridge_factor`` and
``mirror_lower``, which work in the buffer they are given, are pure; arrays
returned by dataset containers are read-only and safe to share across
threads.
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
    "ridge_solve",
    "ridge_factor",
    "hermitian_solve",
    "mirror_lower",
]

# Max acceptable |A - A^H| entry before a matrix is rejected as non-Hermitian.
HERMITIAN_ATOL = 1e-12

# Rows per block of the |A - A^H| check: a temporary is one block, not a copy.
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


def ridge_solve(a: np.ndarray, lam: float, b, rebuild) -> np.ndarray:
    """Solve ``(A + lam I) X = B`` in the buffer ``a``, whose lower triangle
    holds the Hermitian (n, n) ``A``, for an (n,) or (n, k) ``B``.

    The strict upper triangle of ``a`` is never read, and ``a`` is overwritten
    (in place when it is F-ordered). ``lam`` goes on the diagonal; an exactly
    diagonal system is then solved by elementwise division, and any other is
    factored as :func:`ridge_factor` does, with ``rebuild()`` returning ``A``
    afresh for the one jitter retry. The solution is complex when ``B`` is.
    """
    a = ridge_shift(a, lam)
    b = np.asarray(b)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"shape mismatch: A is {a.shape}, B is {b.shape}")
    if _lower_is_diagonal(a):
        d = np.diagonal(a)
        if np.any(d.real <= 0) or np.any(d.imag != 0):
            raise NumericalError("diagonal matrix is not positive definite")
        d = d.real
        return b / (d[:, None] if b.ndim > 1 else d)
    held = [a]
    del a  # so that no reference keeps a failed factorization through the retry
    low = _cholesky(held, lambda: ridge_shift(rebuild(), lam))
    return stacked_apply(lambda m, rhs: cho_solve((m, True), rhs, check_finite=False), low, b)


def ridge_factor(a: np.ndarray, lam: float, rebuild) -> np.ndarray:
    """The Cholesky factor ``L`` of ``A + lam I = L L^H``, factored in the
    buffer ``a`` whose lower triangle holds the Hermitian (n, n) ``A``.

    ``L`` is the lower triangle of the result, which is ``a`` itself when ``a``
    is F-ordered; no strict upper triangle is read or zeroed. If the
    factorization fails, ``rebuild()`` returns ``A`` afresh, ``lam`` and
    ``1e-12 * trace/n`` go on its diagonal and it is factored once more, then
    :class:`NumericalError` is raised.
    """
    held = [ridge_shift(a, lam)]
    del a
    return _cholesky(held, lambda: ridge_shift(rebuild(), lam))


def _cholesky(held: list, again) -> np.ndarray:
    """The package's one Cholesky: the lower triangle of the matrix taken out
    of ``held`` factored in place; after a failure, with the failed buffer
    dropped, once more on ``again()`` with the jitter on its diagonal."""
    for retry in (False, True):
        try:
            return cho_factor(held.pop(), lower=True, overwrite_a=True, check_finite=False)[0]
        except LinAlgError as exc:
            if retry:
                raise NumericalError(
                    "Cholesky factorization failed; matrix appears indefinite") from exc
        a = again()
        held.append(ridge_shift(a, 1e-12 * np.trace(a).real / a.shape[0]))


def _lower_is_diagonal(a: np.ndarray) -> bool:
    """True when the strict lower triangle of ``a`` is all zero, read column by
    column up to the first column with a non-zero entry there."""
    return not any(a[j + 1 :, j].any() for j in range(a.shape[0]))


def hermitian_solve(a, b) -> np.ndarray:
    """Solve ``A X = B`` for a Hermitian positive-definite (n, n) ``A`` (real
    symmetric too) and an (n,) or (n, k) ``B``, complex even when ``A`` is real.

    A non-square ``A``, or one whose max asymmetry ``|A - A^H|`` exceeds
    ``1e-12``, raises ``ValueError``. ``A`` is left as it is: a copy is solved
    by :func:`ridge_solve` (exactly diagonal matrices by elementwise division,
    exact; others by the one Cholesky and its jitter retry, then
    :class:`NumericalError`).
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    asym = 0.0
    for i in range(0, a.shape[0], ASYMMETRY_BLOCK_ROWS):
        rows = slice(i, i + ASYMMETRY_BLOCK_ROWS)
        asym = max(asym, float(np.max(np.abs(a[rows] - a[:, rows].conj().T))))
    if asym > HERMITIAN_ATOL:
        raise ValueError(f"matrix is not Hermitian (max asymmetry {asym:.3e})")
    return ridge_solve(_f_copy(a), 0.0, b, lambda: _f_copy(a))


def _f_copy(a: np.ndarray) -> np.ndarray:
    """An F-ordered floating-point copy of ``a``, for the in-place solves."""
    return np.array(a, dtype=np.result_type(a.dtype, np.float64), order="F")


def mirror_lower(a: np.ndarray, conj: bool = True) -> np.ndarray:
    """The square ``a`` with its strict upper triangle set from its lower one,
    conjugated (Hermitian) or not (symmetric), in place one column at a time;
    returns ``a``."""
    for j in range(1, a.shape[0]):
        a[:j, j] = a[j, :j].conj() if conj else a[j, :j]
    return a


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
