"""Synthetic regression benchmarks on coupled sinc surfaces.

Two experiments over scalar complex inputs drawn uniformly from a square:

1. Real and imaginary target parts with very different smoothness, fitted
   with distinct Gaussian kernels per part against a shared-kernel ablation.
2. Linearly coupled real/imaginary parts, fitted with a one-term
   sum-of-separable kernel (pure imaginary pseudo-kernel) against the
   strictly-complex Gaussian solution.

Both fits are predicted on the grid in one ``predict`` call, sharing each
grid block's distances and the ``exp`` of each gamma they have in common.

Conventions (both calibrated against the reported benchmark figures; see the
module tests): ``sinc`` here is the unnormalized cardinal sine sin(u)/u, and
quoted Gaussian hyperparameters are length-scales, i.e. a quoted value g
yields the kernel exp(-|x - x'|^2 / (2 g^2)).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .core import ComplexDataset, check_lam, check_seed, store_as_annotated
from .kernels import RealGaussian, SeparateRealImag, SumOfSeparable
from .regression import fit_augmented, fit_srkhs, mse_db, predict

__all__ = [
    "sinc",
    "target_exp1",
    "target_exp2",
    "gaussian_from_length_scale",
    "SyntheticConfig",
    "SyntheticResult",
    "draw_training_inputs",
    "evaluation_grid",
    "run_exp1",
    "run_exp2",
]


def sinc(u):
    """Unnormalized cardinal sine sin(u)/u with sinc(0) = 1."""
    u = np.asarray(u, dtype=np.float64)
    out = np.ones_like(u)
    nz = u != 0
    out[nz] = np.sin(u[nz]) / u[nz]
    return out if out.ndim else float(out)


def target_exp1(x) -> np.ndarray:
    """First benchmark surface: bumpy real part, smooth imaginary part."""
    x = np.asarray(x, dtype=np.complex128)
    xr, xj = x.real, x.imag
    yr = np.zeros_like(xr)
    for r in (-1, 0, 1):
        yr = yr + sinc(1.2 * xr + 2 * r) * sinc(1.2 * xj - 2 * r)
    yj = sinc(0.2 * xj - 1.5)
    return yr + 1j * yj


def target_exp2(x, omega: float = 0.3) -> np.ndarray:
    """Second benchmark surface: real/imaginary parts coupled by ``omega``."""
    x = np.asarray(x, dtype=np.complex128)
    xr, xj = x.real, x.imag
    zr = sinc(0.5 * xr) * sinc(0.5 * xj)
    zj = 0.1 * sinc(0.3 * xj)
    return (zr + omega * zj) + 1j * (zj + omega * zr)


def gaussian_from_length_scale(length_scale: float) -> RealGaussian:
    """Gaussian kernel with the quoted length-scale g: exp(-d^2 / (2 g^2))."""
    return RealGaussian(gamma=2.0 * float(length_scale) ** 2)


@dataclass(frozen=True)
class SyntheticConfig:
    """Full description of one synthetic benchmark run, checked when built."""

    experiment: int
    seed: int = 0
    n_train: int = 200
    input_lo: float = -5.0
    input_hi: float = 5.0
    grid_resolution: int = 101
    lam: float = 1e-6
    gamma_re: float = 1.0   # experiment 1: real-part length-scale
    gamma_im: float = 3.5   # experiment 1: imaginary-part length-scale
    gamma: float = 2.0      # experiment 2: shared length-scale
    omega: float = 0.3      # experiment 2: coupling weight

    def __post_init__(self):
        store_as_annotated(self)
        if self.experiment not in (1, 2):
            raise ValueError("experiment must be 1 or 2")
        check_seed(self.seed)
        check_lam(self.lam)
        if self.n_train < 1:
            raise ValueError("n_train must be >= 1")
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be >= 2")
        for name in ("input_lo", "input_hi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.input_lo < self.input_hi:
            raise ValueError("input_lo must be below input_hi")
        if not math.isfinite(self.input_hi - self.input_lo):
            raise ValueError("input_hi - input_lo must be finite, got "
                             f"{self.input_hi!r} - {self.input_lo!r}")
        for name in ("gamma_re", "gamma_im", "gamma"):
            value = getattr(self, name)
            # a length-scale g gives the kernel width 2 g^2, which must be finite and > 0 too
            if not (value > 0 and 0 < 2.0 * (value * value) < math.inf):
                raise ValueError(f"{name} must be finite and > 0, and so must the kernel "
                                 f"width 2 {name}^2; got {value!r}")
        if not 0.0 <= self.omega < 1.0:
            raise ValueError(f"omega must lie in [0, 1), got {self.omega!r}")

    def to_config(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_config(cfg: dict) -> "SyntheticConfig":
        return SyntheticConfig(**cfg)


@dataclass(frozen=True)
class SyntheticResult:
    """Grid MSEs of the widely fit and its strictly-complex ablation."""

    wrkhs_mse_db: float
    ablation_mse_db: float
    grid: np.ndarray
    wrkhs_pred: np.ndarray
    truth: np.ndarray


def draw_training_inputs(config: SyntheticConfig) -> np.ndarray:
    """n scalar complex inputs, real/imag parts iid uniform on the range."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(config.seed)))
    xr = rng.uniform(config.input_lo, config.input_hi, config.n_train)
    xj = rng.uniform(config.input_lo, config.input_hi, config.n_train)
    return (xr + 1j * xj)[:, None]


def evaluation_grid(config: SyntheticConfig) -> np.ndarray:
    """Dense scalar complex grid over the input square, row-major."""
    g = np.linspace(config.input_lo, config.input_hi, config.grid_resolution)
    gr, gj = np.meshgrid(g, g, indexing="ij")
    return (gr.ravel() + 1j * gj.ravel())[:, None]


def _run(config: SyntheticConfig, experiment: int, target, wide_spec, ablation_spec):
    """Fit ``wide_spec`` and the null-pseudo ``ablation_spec`` to ``target`` on
    the training draw of ``config`` and score both on the evaluation grid."""
    if config.experiment != experiment:
        raise ValueError(f"config is not for experiment {experiment}")
    x = draw_training_inputs(config)
    data = ComplexDataset(X=x, y=target(x[:, 0]))
    wide = fit_augmented(data, wide_spec, config.lam)
    ablation = fit_srkhs(data, ablation_spec, config.lam)
    grid = evaluation_grid(config)
    truth = target(grid[:, 0])
    wide_pred, ablation_pred = predict((wide, ablation), grid)
    return SyntheticResult(
        wrkhs_mse_db=mse_db(wide_pred, truth),
        ablation_mse_db=mse_db(ablation_pred, truth),
        grid=grid[:, 0],
        wrkhs_pred=wide_pred,
        truth=truth,
    )


def run_exp1(config: SyntheticConfig) -> SyntheticResult:
    """Distinct per-part kernels vs the same-kernel null-pseudo ablation."""
    k_re = gaussian_from_length_scale(config.gamma_re)
    k_im = gaussian_from_length_scale(config.gamma_im)
    return _run(
        config, 1, target_exp1,
        SeparateRealImag(rr=k_re, jj=k_im), SeparateRealImag(rr=k_re, jj=k_re),
    )


def run_exp2(config: SyntheticConfig) -> SyntheticResult:
    """Mixed-effect coupled kernel vs the strictly-complex Gaussian solution."""
    base = gaussian_from_length_scale(config.gamma)
    return _run(
        config, 2, partial(target_exp2, omega=config.omega),
        SumOfSeparable(terms=((base, config.omega),)), base,
    )
