"""Nonlinear channel equalization benchmark.

Pipeline per trial: draw a complex source with tunable circularity, pass it
through a two-tap linear filter followed by a memoryless cubic nonlinearity,
corrupt with circular AWGN at a fixed SNR, then stream windowed received
samples through the online recursion and record the running mean of the
squared prediction error. Curves are averaged across independent trials.
A budgeted trial streams its samples through ``Wrkls.observe_many``, one
kernel evaluation per block of samples; an unbudgeted one takes
``streaming_ridge_predictions``, one Cholesky factorization.

Randomness is counter-based (Philox): trial i uses key ``base_seed + i`` with
separate jumped streams for source and noise, so any subset of trials can be
reproduced on its own. The trials are split in trial order over one process
per core, at most one per trial: the calling process runs the first share and
forked children the others, each process with its share of the cores as BLAS
threads (``core.limit_blas_threads``). The curves are summed in trial order,
so the average does not depend on the split.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .core import ComplexDataset, check_seed, limit_blas_threads, store_as_annotated, to_pairs
from .kernels import KernelSpec, RealGaussian, kernel_from_config
from .online import Wrkls, streaming_ridge_predictions

__all__ = [
    "ChannelConfig",
    "EqualizationConfig",
    "EqualizationResult",
    "trial_rngs",
    "generate_source",
    "apply_channel",
    "add_awgn",
    "build_equalizer_dataset",
    "run_equalization",
]

DEFAULT_TAPS = (-0.9 + 0.8j, 0.6 - 0.7j)
DEFAULT_C2 = 0.2 + 0.25j
DEFAULT_C3 = 0.12 + 0.09j
DEFAULT_KERNEL = RealGaussian(gamma=8.92)


@dataclass(frozen=True)
class ChannelConfig:
    """Source, channel, and windowing parameters for one benchmark."""

    rho: float
    snr_db: float = 16.0
    taps: tuple[complex, complex] = DEFAULT_TAPS
    c2: complex = DEFAULT_C2
    c3: complex = DEFAULT_C3
    source_scale: float = 0.70
    filter_length: int = 5
    delay: int = 2
    n_samples: int = 5000
    trials: int = 500
    base_seed: int = 0

    def __post_init__(self):
        store_as_annotated(self)
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        _snr_ratio(self.snr_db)
        for name in ("taps", "c2", "c3", "source_scale"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.filter_length < 1:
            raise ValueError("filter_length must be >= 1")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")
        if self.n_samples <= self.filter_length + self.delay:
            raise ValueError("n_samples must exceed filter_length + delay")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # trial i draws from the generator keyed base_seed + i
        check_seed(self.base_seed, "base_seed", self.trials)


@dataclass(frozen=True)
class EqualizationConfig:
    """Channel benchmark plus equalizer hyperparameters, refused when built
    unless the online recursion accepts its kernel, ``lam`` and ``budget``."""

    channel: ChannelConfig
    kernel: KernelSpec = DEFAULT_KERNEL
    lam: float = 0.32
    budget: int | None = None

    def __post_init__(self):
        store_as_annotated(self)
        Wrkls(self.kernel, self.lam, self.budget)

    def to_config(self) -> dict:
        """The channel fields, flattened, a complex one as ``[re, im]`` pairs, then
        ``kernel``, ``lam`` and ``budget``."""
        cfg = {name: to_pairs(value) if isinstance(value, (complex, tuple)) else value
               for name, value in asdict(self.channel).items()}
        return {**cfg, "kernel": self.kernel.to_config(), "lam": self.lam, "budget": self.budget}

    @staticmethod
    def from_config(cfg: dict) -> "EqualizationConfig":
        channel = dict(cfg)
        kernel = channel.pop("kernel", None)
        top = {name: channel.pop(name) for name in ("lam", "budget") if name in channel}
        return EqualizationConfig(
            channel=ChannelConfig(**channel),
            kernel=DEFAULT_KERNEL if kernel is None else kernel_from_config(kernel),
            **top,
        )


@dataclass(frozen=True)
class EqualizationResult:
    """Trial-averaged running-MSE curve and its final value."""

    curve_db: np.ndarray
    final_mse_db: float
    n_stream: int
    trials: int


def trial_rngs(base_seed: int, trial: int):
    """Independent (source, noise) generators for one trial.

    Counter-based Philox keyed by ``base_seed + trial``; the noise stream is
    the source stream jumped once.
    """
    root = np.random.Philox(key=np.uint64(base_seed + trial))
    return np.random.Generator(root), np.random.Generator(root.jumped(1))


def generate_source(
    n: int, rho: float, rng: np.random.Generator, scale: float = 0.70
) -> np.ndarray:
    """Complex source ``scale * (sqrt(1 - rho^2) X + j rho Y)``, X, Y ~ N(0,1).

    Circular for ``rho = 1/sqrt(2)``; highly noncircular as rho approaches
    0 or 1.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    return scale * (np.sqrt(1.0 - rho * rho) * x + 1j * rho * y)


def apply_channel(
    s,
    taps: tuple[complex, complex] = DEFAULT_TAPS,
    c2: complex = DEFAULT_C2,
    c3: complex = DEFAULT_C3,
) -> np.ndarray:
    """Two-tap filter then memoryless cubic polynomial.

    ``t(n) = h0 s(n) + h1 s(n-1)`` (with ``s(-1) = 0``) and
    ``q(n) = t + c2 t^2 + c3 t^3``. ``ValueError`` names the channel output
    when the cubic overflows to a value that is not finite.
    """
    s = np.asarray(s, dtype=np.complex128).ravel()
    if s.size < 2:
        raise ValueError(f"s must have length >= 2, got {s.size}")
    h0, h1 = taps
    t = h0 * s
    t[1:] += h1 * s[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        q = t + c2 * t**2 + c3 * t**3
    if not np.isfinite(q).all():
        raise ValueError("channel output is not finite: the source, taps, c2 or c3 "
                         "overflow the cubic")
    return q


def _snr_ratio(snr_db) -> float:
    """The power ratio ``10^(snr_db/10)``; ``ValueError`` naming ``snr_db``
    unless it is a finite positive float (a NaN or infinite ``snr_db`` is not)."""
    try:
        ratio = 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        ratio = math.inf
    if not (0.0 < ratio < math.inf):
        raise ValueError(f"snr_db must be finite with 10^(snr_db/10) a finite positive "
                         f"float, got {snr_db}")
    return ratio


def add_awgn(q, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    """Add circular white Gaussian noise at the given SNR.

    The noise variance is ``mean(|q|^2) / 10^(snr_db/10)`` -- SNR is defined
    against the empirical per-trial power of the channel output -- split
    evenly between the real and imaginary parts. ``ValueError`` names
    ``snr_db`` unless the ratio (:func:`_snr_ratio`) and the variance are finite
    positive floats.
    """
    q = np.asarray(q, dtype=np.complex128).ravel()
    ratio = _snr_ratio(snr_db)
    with np.errstate(over="ignore", invalid="ignore"):
        power = float(np.mean(np.abs(q) ** 2))
    if not 0.0 < power < math.inf:
        raise ValueError(f"channel output has zero power or a non-finite one ({power})")
    sigma2 = power / ratio
    if not (0.0 < sigma2 < math.inf):
        raise ValueError(f"snr_db {snr_db} gives a noise variance {sigma2} that is not "
                         "a finite positive float")
    half = np.sqrt(sigma2 / 2.0)
    noise = half * (rng.standard_normal(q.size) + 1j * rng.standard_normal(q.size))
    return q + noise


def build_equalizer_dataset(
    r, s, filter_length: int, delay: int
) -> ComplexDataset:
    """Windowed regressors ``x(n) = [r(n+D), ..., r(n+D-L+1)]`` with target s(n).

    Only fully-defined windows are kept: n ranges over
    ``[max(0, L-1-D), len(r)-1-D]``, preserving stream order.
    """
    r = np.asarray(r, dtype=np.complex128).ravel()
    s = np.asarray(s, dtype=np.complex128).ravel()
    if r.size != s.size:
        raise ValueError(f"r and s must have equal length, got {r.size} and {s.size}")
    n_total = r.size
    first = max(0, filter_length - 1 - delay)
    last = n_total - 1 - delay
    if last < first:
        raise ValueError("stream too short for the requested window")
    idx = np.arange(first, last + 1)
    offsets = delay - np.arange(filter_length)
    windows = r[idx[:, None] + offsets[None, :]]
    return ComplexDataset(X=windows, y=s[idx])


def _run_trial(config: EqualizationConfig, trial: int) -> np.ndarray:
    """Cumulative-mean squared-error curve of one trial (linear scale)."""
    ch = config.channel
    source_rng, noise_rng = trial_rngs(ch.base_seed, trial)
    s = generate_source(ch.n_samples, ch.rho, source_rng, ch.source_scale)
    q = apply_channel(s, ch.taps, ch.c2, ch.c3)
    r = add_awgn(q, ch.snr_db, noise_rng)
    data = build_equalizer_dataset(r, s, ch.filter_length, ch.delay)
    if config.budget is None:
        preds = streaming_ridge_predictions(config.kernel, data.X, data.y, config.lam)
    else:
        preds = Wrkls(config.kernel, config.lam, budget=config.budget).observe_many(data.X, data.y)
    sq_err = np.abs(preds - data.y) ** 2
    return np.cumsum(sq_err) / np.arange(1, data.n + 1)


def run_equalization(config: EqualizationConfig) -> EqualizationResult:
    """Average the per-sample running MSE over all configured trials.

    The trials run in ``W = min(cores, trials)`` processes (one without the
    ``fork`` start method, or in a daemonic process, which may start none),
    each with at most ``cores // W`` BLAS threads: this one runs the first
    share of trials, forked children the later ones.
    A child's warnings are issued again here and its exception is raised
    here; a child that exits without its curves raises ``ChildProcessError``.
    """
    trials = config.channel.trials
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    forks = ("fork" in multiprocessing.get_all_start_methods()
             and not multiprocessing.current_process().daemon)
    workers = min(cores, trials) if forks else 1
    first, *rest = [range(k * trials // workers, (k + 1) * trials // workers)
                    for k in range(workers)]
    children = []
    try:
        for share in rest:
            children.append(_fork_share(config, share, cores // workers))
        with limit_blas_threads(cores // workers):
            total = _run_trial(config, first[0])
            for trial in first[1:]:
                total += _run_trial(config, trial)
        for child, reader in children:
            for curve in _share_curves(child, reader):
                total += curve
    finally:
        for child, reader in children:
            reader.close()
            if child.is_alive():
                child.kill()
            child.join()
    avg = total / trials
    curve_db = 10.0 * np.log10(avg)
    return EqualizationResult(
        curve_db=curve_db,
        final_mse_db=float(curve_db[-1]),
        n_stream=avg.shape[0],
        trials=trials,
    )


def _fork_share(config: EqualizationConfig, share: range, threads: int):
    """A forked process running :func:`_run_share`, and its pipe's reading end."""
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)
    child = context.Process(target=_run_share, args=(config, share, threads, writer), daemon=True)
    child.start()
    writer.close()  # so that a child gone without a word reads as the end of the pipe
    return child, reader


def _run_share(config: EqualizationConfig, share: range, threads: int, writer) -> None:
    """In a child: send the curves of the trials in ``share``, the warnings
    they issued and the exception that stopped them, or None, through ``writer``."""
    curves, error = [], None
    with warnings.catch_warnings(record=True) as caught:
        try:
            with limit_blas_threads(threads):
                curves = [_run_trial(config, trial) for trial in share]
        except BaseException as exc:  # raised again in the parent
            error = exc
    writer.send((curves, [w.message for w in caught], error))


def _share_curves(child, reader) -> list[np.ndarray]:
    """The curves a child sent, after issuing its warnings again, from the
    caller of :func:`run_equalization`, and raising its exception, if any."""
    try:
        curves, messages, error = reader.recv()
    except (EOFError, OSError):
        child.join()
        raise ChildProcessError(f"an equalization trial process exited with code "
                                f"{child.exitcode} before sending its curves") from None
    child.join()
    for message in messages:
        warnings.warn(message, stacklevel=3)
    if error is not None:
        raise error
    return curves
