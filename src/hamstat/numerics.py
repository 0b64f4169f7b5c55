"""Shared numerical helpers: Fourier conventions and small stencils.

Loop-valued objects are sampled at the M-th roots of unity
``lam_m = exp(2*pi*i*m/M)``; Fourier coefficients follow the convention
``f(lam) = sum_k fhat_k lam**k`` so that ``fhat = fft(samples)/M`` with
indices read modulo M (index j >= M/2 means exponent j - M).
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def dot_r2(w, z):
    """Real dot product of complex numbers viewed as R^2 vectors."""
    return np.real(np.conj(w) * z)


def unit_lambdas(m: int) -> np.ndarray:
    """The m-th roots of unity, ordered with lambda_0 = 1."""
    return np.exp(2j * np.pi * np.arange(m) / m)


def loop_coeffs(samples: np.ndarray) -> np.ndarray:
    """Fourier coefficients of circle samples along the first axis, index
    j <-> exponent j mod M."""
    return np.fft.fft(samples, axis=0) / len(samples)


def coeff_exponents(m: int) -> np.ndarray:
    """Exponent carried by each coefficient slot: 0..M/2-1, then -M/2..-1."""
    k = np.arange(m)
    return np.where(k < m // 2 + m % 2, k, k - m)


def samples_from_coeffs(coeffs: np.ndarray) -> np.ndarray:
    return np.fft.ifft(coeffs, axis=0) * len(coeffs)


# Finite-difference stencils.  `f` maps a complex array to an array whose
# leading axes match the input; steps are taken in the ambient x/y directions.

def fd_x(f, z, h):
    return (f(z + h) - f(z - h)) / (2.0 * h)


def fd_y(f, z, h):
    return (f(z + 1j * h) - f(z - 1j * h)) / (2.0 * h)


def fd_x4(f, z, h):
    """Fourth-order central d/dx."""
    return (8.0 * (f(z + h) - f(z - h)) - (f(z + 2 * h) - f(z - 2 * h))) / (12.0 * h)


def fd_y4(f, z, h):
    return (8.0 * (f(z + 1j * h) - f(z - 1j * h))
            - (f(z + 2j * h) - f(z - 2j * h))) / (12.0 * h)
