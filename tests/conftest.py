"""Shared helpers: random inputs and one representative spec per kernel family."""

import numpy as np
import pytest

from wrkhs import (
    ComplexGaussian,
    IndependentGaussian,
    RealGaussian,
    RealImagBlocks,
    SeparateRealImag,
    SumOfSeparable,
)


def random_inputs(rng, n, d, scale=1.5):
    return scale * (rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))


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
