"""Widely complex-valued kernel regression.

Batch ridge regression with a kernel *and* a pseudo-kernel (acting on the
conjugated coefficients), the strictly-complex special case, a kernel zoo
for complex inputs, a budgeted online recursion, and two benchmark suites
(synthetic surfaces and nonlinear channel equalization).
"""

from .core import ComplexDataset, NumericalError
from .kernels import (
    ComplexGaussian,
    IndependentGaussian,
    KernelOverflowWarning,
    KernelSpec,
    RealGaussian,
    RealImagBlocks,
    SeparateRealImag,
    SumOfSeparable,
    kernel_from_config,
)
from .regression import (
    FitInfo,
    WrkhsModel,
    fit_augmented,
    fit_srkhs,
    model_from_json,
    model_to_json,
    mse_db,
    predict,
)
from .online import Wrkls, streaming_ridge_predictions
from .channel import (
    ChannelConfig,
    EqualizationConfig,
    EqualizationResult,
    add_awgn,
    apply_channel,
    build_equalizer_dataset,
    generate_source,
    run_equalization,
    trial_rngs,
)
from .synthetic import (
    SyntheticConfig,
    SyntheticResult,
    gaussian_from_length_scale,
    run_exp1,
    run_exp2,
    sinc,
    target_exp1,
    target_exp2,
)

__version__ = "0.1.0"
